"""The analyzer dogfoods: the live tree must be clean under every rule.

This is the test CI relies on between pushes: any change that violates a
project invariant — an IO call in the core, an unlocked registry access, an
unseeded random draw, a layer inversion, a lock-order cycle — fails here
with the exact ``file:line CODE`` the developer needs, before it ships a
race or a perf cliff.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import PROJECT_SCOPES, Analyzer, all_rules
from repro.analysis.framework import ModuleSource

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The trees CI lints; `tests/` is exempt (fixtures violate on purpose).
LINTED_TREES = ("src", "benchmarks", "examples", "scripts")

#: Every sanctioned inline suppression in the linted trees, as
#: ``(relpath, code) -> count``.  Grow this table only with a reviewed
#: reason — a new entry is a new carve-out from a project invariant.
SANCTIONED_SUPPRESSIONS = {
    # The interactive ConsoleOracle *is* the terminal frontend: its two
    # prompts and its re-ask print are the only sanctioned IO in the core.
    ("src/repro/core/oracle.py", "RPR001"): 3,
}


def _linted_paths() -> list[Path]:
    paths = [REPO_ROOT / name for name in LINTED_TREES if (REPO_ROOT / name).is_dir()]
    assert paths, "repository layout changed: none of the linted trees exist"
    return paths


def test_live_tree_is_clean_under_all_rules():
    analyzer = Analyzer(scopes=PROJECT_SCOPES, root=REPO_ROOT)
    report = analyzer.analyze_paths(_linted_paths())
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"invariant violations in the live tree:\n{rendered}"
    assert report.files_checked > 50


def test_every_rule_runs_and_finds_nothing():
    # Per-rule pinning: all eleven rules are registered (RPR004, numpy
    # containment, went when numpy became a requirement), and each reports
    # zero findings on the live tree (not merely "the total is zero").
    codes = {rule.code for rule in all_rules()}
    assert codes == {f"RPR{n:03d}" for n in range(1, 13)} - {"RPR004"}
    analyzer = Analyzer(scopes=PROJECT_SCOPES, root=REPO_ROOT)
    report = analyzer.analyze_paths(_linted_paths())
    assert report.counts_by_rule() == {}


def test_suppression_sites_match_the_sanctioned_table():
    # Not just the count: the exact files and codes.  A suppression moving
    # to a new file, or covering a new rule, must be re-reviewed here.
    found: dict[tuple[str, str], int] = {}
    for tree in _linted_paths():
        for path in sorted(tree.rglob("*.py")):
            relpath = path.relative_to(REPO_ROOT).as_posix()
            module = ModuleSource.parse(path, relpath, path.read_text(encoding="utf-8"))
            for comment in module.suppression_comments():
                for code in sorted(comment.codes):
                    key = (relpath, code)
                    found[key] = found.get(key, 0) + 1
    assert found == SANCTIONED_SUPPRESSIONS


def test_no_suppression_is_stale():
    # Every sanctioned comment must actually suppress a finding; a stale one
    # is a carve-out with nothing behind it and fails as RPR099.
    analyzer = Analyzer(
        scopes=PROJECT_SCOPES, root=REPO_ROOT, warn_unused_suppressions=True
    )
    report = analyzer.analyze_paths(_linted_paths())
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"stale suppressions (or findings) in the live tree:\n{rendered}"
    assert report.suppressed == sum(SANCTIONED_SUPPRESSIONS.values())


def test_project_scopes_cover_every_rule():
    codes = {rule.code for rule in all_rules()}
    assert set(PROJECT_SCOPES) == codes
