"""The analysis framework: scoping, suppressions, reports, CLI plumbing."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    PROJECT_SCOPES,
    Analyzer,
    Scope,
    all_rules,
    rules_for,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.framework import SYNTAX_ERROR_CODE, ModuleSource


def write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def project_analyzer(root: Path) -> Analyzer:
    return Analyzer(scopes=PROJECT_SCOPES, root=root)


# RPR001 inside the sans-IO scope (and *only* RPR001: an `import socket`
# would additionally trip the RPR008 transport monopoly).
VIOLATION = 'print("x")\n'


class TestRegistry:
    def test_at_least_six_rules_registered(self):
        rules = all_rules()
        assert len(rules) >= 6
        codes = [rule.code for rule in rules]
        assert codes == sorted(codes)
        for expected in ("RPR001", "RPR002", "RPR003", "RPR005", "RPR006", "RPR007"):
            assert expected in codes

    def test_every_rule_carries_name_and_rationale(self):
        for rule in all_rules():
            assert rule.name
            assert rule.rationale

    def test_rules_for_selects_by_code(self):
        selected = rules_for(["rpr001", "RPR003"])
        assert [rule.code for rule in selected] == ["RPR001", "RPR003"]

    def test_rules_for_rejects_unknown_codes(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            rules_for(["RPR999"])


class TestScoping:
    def test_scope_include_and_exclude(self):
        scope = Scope(include=("src/repro/core/*",), exclude=("src/repro/core/kernels.py",))
        assert scope.matches("src/repro/core/engine.py")
        assert scope.matches("src/repro/core/strategies/base.py")
        assert not scope.matches("src/repro/core/kernels.py")
        assert not scope.matches("src/repro/service/service.py")

    def test_out_of_scope_file_is_not_checked(self, tmp_path):
        write(tmp_path, "examples/demo.py", VIOLATION)
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "examples"])
        assert report.ok

    def test_in_scope_file_is_checked(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert [finding.code for finding in report.findings] == ["RPR001"]

    def test_config_carveout_beats_rule_scope(self, tmp_path):
        # csv_io is excluded from RPR001 in the project config even though it
        # lives under the relational/ include.
        write(tmp_path, "src/repro/relational/csv_io.py", "f = open('x')\n")
        write(tmp_path, "src/repro/relational/other.py", "f = open('x')\n")
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert [finding.relpath for finding in report.findings] == [
            "src/repro/relational/other.py"
        ]

    def test_scope_override_replaces_rule_default(self, tmp_path):
        write(tmp_path, "anywhere/loose.py", VIOLATION)
        analyzer = Analyzer(
            rules=rules_for(["RPR001"]),
            scopes={"RPR001": Scope(include=("*",))},
            root=tmp_path,
        )
        report = analyzer.analyze_paths([tmp_path])
        assert [finding.code for finding in report.findings] == ["RPR001"]


class TestSuppressions:
    def test_inline_suppression_silences_the_line(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/bad.py",
            'print("x")  # repro-lint: disable=RPR001\n',
        )
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.ok
        assert report.suppressed == 1

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/bad.py",
            """\
            # repro-lint: disable=RPR001 - reasons may follow the codes
            print("x")
            """,
        )
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_is_per_code(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/bad.py",
            'print("x")  # repro-lint: disable=RPR005\n',
        )
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert [finding.code for finding in report.findings] == ["RPR001"]
        assert report.suppressed == 0

    def test_multiple_codes_and_all(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/bad.py",
            """\
            import random
            print("x")  # repro-lint: disable=RPR001, RPR005
            random.seed(1)  # repro-lint: disable=all
            """,
        )
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.ok
        assert report.suppressed == 2

    def test_suppression_on_wrong_line_does_not_leak(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/bad.py",
            """\
            x = 1  # repro-lint: disable=RPR001
            print("x")
            """,
        )
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert [finding.code for finding in report.findings] == ["RPR001"]


class TestReports:
    def test_finding_rendering_is_stable(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", "\nimport socket\n")
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.findings[0].render() == (
            "src/repro/core/bad.py:2 RPR001 import of IO/transport module "
            "'socket' in sans-IO code"
        )

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        write(tmp_path, "src/repro/core/b.py", 'print("b")\nprint("b")\n')
        write(tmp_path, "src/repro/core/a.py", 'print("a")\n')
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        locations = [(finding.relpath, finding.line) for finding in report.findings]
        assert locations == [
            ("src/repro/core/a.py", 1),
            ("src/repro/core/b.py", 1),
            ("src/repro/core/b.py", 2),
        ]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        write(tmp_path, "src/repro/core/broken.py", "def f(:\n")
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert [finding.code for finding in report.findings] == [SYNTAX_ERROR_CODE]

    def test_counts_by_rule(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", 'import random\nprint("x")\nrandom.seed(1)\n')
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.counts_by_rule() == {"RPR001": 1, "RPR005": 1}

    def test_directories_are_walked_and_pycache_skipped(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        write(tmp_path, "src/repro/core/__pycache__/bad.py", VIOLATION)
        write(tmp_path, "src/repro/core/.hidden/bad.py", VIOLATION)
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert len(report.findings) == 1
        assert report.files_checked == 1


class TestModuleSource:
    def test_parse_records_lines_and_relpath(self, tmp_path):
        path = write(tmp_path, "m.py", "a = 1\nb = 2\n")
        module = ModuleSource.parse(path, "m.py", path.read_text())
        assert module.lines == ("a = 1", "b = 2")
        assert module.relpath == "m.py"


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/repro/core/fine.py", "x = 1\n")
        assert cli_main(["--root", str(tmp_path), str(tmp_path / "src")]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        assert cli_main(["--root", str(tmp_path), str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/bad.py:1 RPR001" in out

    def test_select_restricts_rules(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        args = ["--root", str(tmp_path), "--select", "RPR005", str(tmp_path / "src")]
        assert cli_main(args) == 0

    def test_stats_lists_every_selected_rule(self, tmp_path, capsys):
        write(tmp_path, "src/repro/core/fine.py", "x = 1\n")
        assert cli_main(["--root", str(tmp_path), "--stats", str(tmp_path / "src")]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR005", "RPR006", "RPR007"):
            assert f"{code} (" in out

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001 sans-io-purity" in out


class TestUnusedSuppressions:
    def test_stale_comment_is_reported_under_the_flag(self, tmp_path):
        write(tmp_path, "src/repro/core/fine.py", "x = 1  # repro-lint: disable=RPR001\n")
        analyzer = Analyzer(
            scopes=PROJECT_SCOPES, root=tmp_path, warn_unused_suppressions=True
        )
        report = analyzer.analyze_paths([tmp_path / "src"])
        assert [finding.code for finding in report.findings] == ["RPR099"]
        assert "unused suppression" in report.findings[0].message
        assert "RPR001" in report.findings[0].message

    def test_used_comment_is_not_reported(self, tmp_path):
        write(tmp_path, "src/repro/core/bad.py", 'print("x")  # repro-lint: disable=RPR001\n')
        analyzer = Analyzer(
            scopes=PROJECT_SCOPES, root=tmp_path, warn_unused_suppressions=True
        )
        report = analyzer.analyze_paths([tmp_path / "src"])
        assert report.ok
        assert report.suppressed == 1

    def test_off_by_default(self, tmp_path):
        write(tmp_path, "src/repro/core/fine.py", "x = 1  # repro-lint: disable=RPR001\n")
        report = project_analyzer(tmp_path).analyze_paths([tmp_path / "src"])
        assert report.ok

    def test_suppressions_are_parsed_in_clean_files_too(self, tmp_path):
        # The per-file analysis reports the stale comment even when the file
        # carries no findings at all (the suppression parse is unconditional).
        path = write(tmp_path, "src/repro/core/fine.py", "x = 1  # repro-lint: disable=RPR001\n")
        analysis = project_analyzer(tmp_path).analyze_file(path)
        assert analysis.findings == []
        assert analysis.suppressed == 0
        assert [finding.code for finding in analysis.unused_suppressions] == ["RPR099"]

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/docs.py",
            '''\
            """Use ``# repro-lint: disable=RPR001`` to suppress a finding."""

            x = 1
            ''',
        )
        analyzer = Analyzer(
            scopes=PROJECT_SCOPES, root=tmp_path, warn_unused_suppressions=True
        )
        assert analyzer.analyze_paths([tmp_path / "src"]).ok

    def test_mid_comment_mention_is_not_a_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/docs.py",
            "#: the directive looks like ``# repro-lint: disable=RPR001``\nx = 1\n",
        )
        analyzer = Analyzer(
            scopes=PROJECT_SCOPES, root=tmp_path, warn_unused_suppressions=True
        )
        assert analyzer.analyze_paths([tmp_path / "src"]).ok


class TestJsonFormat:
    def test_json_report_carries_findings_and_counts(self, tmp_path, capsys):
        import json

        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        assert cli_main(["--root", str(tmp_path), "--format", "json", str(tmp_path / "src")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts_by_rule"] == {"RPR001": 1}
        (finding,) = payload["findings"]
        assert finding["path"] == "src/repro/core/bad.py"
        assert finding["line"] == 1
        assert finding["code"] == "RPR001"
        assert finding["message"]

    def test_json_report_on_a_clean_tree(self, tmp_path, capsys):
        import json

        write(tmp_path, "src/repro/core/fine.py", "x = 1\n")
        assert cli_main(["--root", str(tmp_path), "--format", "json", str(tmp_path / "src")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []


class TestRestrictReport:
    def test_only_restricted_paths_are_reported(self, tmp_path, capsys):
        write(tmp_path, "src/repro/core/a.py", VIOLATION)
        write(tmp_path, "src/repro/core/b.py", VIOLATION)
        args = [
            "--root",
            str(tmp_path),
            "--restrict-report",
            "src/repro/core/a.py",
            str(tmp_path / "src"),
        ]
        assert cli_main(args) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/a.py:1 RPR001" in out
        assert "src/repro/core/b.py" not in out

    def test_exit_zero_when_restricted_files_are_clean(self, tmp_path):
        write(tmp_path, "src/repro/core/fine.py", "x = 1\n")
        write(tmp_path, "src/repro/core/bad.py", VIOLATION)
        args = [
            "--root",
            str(tmp_path),
            "--restrict-report",
            "src/repro/core/fine.py",
            str(tmp_path / "src"),
        ]
        assert cli_main(args) == 0
