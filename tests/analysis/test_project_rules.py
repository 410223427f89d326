"""The whole-program rules: RPR009 layering, RPR010 lock order,
RPR011 blocking-in-async, RPR012 resource lifecycle.

Each rule gets a violating fixture and a clean twin, run through the real
:class:`~repro.analysis.framework.Analyzer` so scope filtering and
suppression handling are exercised too.  The RPR010 inversion fixture is
modeled on the cluster supervisor's real lock graph (slot locks nested
against a registry lock) with one injected opposite-order path.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import PROJECT_SCOPES, Analyzer, Scope, rules_for


def write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_rule(root: Path, code: str):
    """Run one project rule over everything under ``root``."""
    analyzer = Analyzer(
        rules=rules_for([code]), scopes={code: Scope(include=("*",))}, root=root
    )
    return analyzer.analyze_paths([root])


class TestLayerArchitecture:
    def _layout(self, tmp_path):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/core/__init__.py", "")
        write(tmp_path, "src/repro/service/__init__.py", "")
        write(tmp_path, "src/repro/service/stepper.py", "class Stepper:\n    pass\n")

    def test_upward_import_time_edge_is_flagged(self, tmp_path):
        self._layout(tmp_path)
        write(
            tmp_path,
            "src/repro/core/engine.py",
            "from ..service.stepper import Stepper\n",
        )
        report = run_rule(tmp_path, "RPR009")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.relpath == "src/repro/core/engine.py"
        assert "layer 'core' must not import layer 'service'" in finding.message
        assert "defer the import" in finding.message

    def test_one_import_statement_yields_one_finding(self, tmp_path):
        # ``from x import a, b`` records one edge per name; the rule dedups.
        self._layout(tmp_path)
        write(tmp_path, "src/repro/service/extra.py", "a = 1\nb = 2\n")
        write(
            tmp_path,
            "src/repro/core/engine.py",
            "from ..service.extra import a, b\n",
        )
        report = run_rule(tmp_path, "RPR009")
        assert len(report.findings) == 1

    def test_deferred_and_type_checking_imports_are_sanctioned(self, tmp_path):
        self._layout(tmp_path)
        write(
            tmp_path,
            "src/repro/core/engine.py",
            """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from ..service.stepper import Stepper

            def build():
                from ..service.stepper import Stepper

                return Stepper()
            """,
        )
        report = run_rule(tmp_path, "RPR009")
        assert report.ok

    def test_downward_import_is_allowed(self, tmp_path):
        self._layout(tmp_path)
        write(tmp_path, "src/repro/core/engine.py", "class Engine:\n    pass\n")
        write(
            tmp_path,
            "src/repro/service/service.py",
            "from ..core.engine import Engine\n",
        )
        report = run_rule(tmp_path, "RPR009")
        assert report.ok

    def test_analysis_layer_imports_nothing(self, tmp_path):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/exceptions.py", "class ReproError(Exception):\n    pass\n")
        write(tmp_path, "src/repro/analysis/__init__.py", "")
        write(
            tmp_path,
            "src/repro/analysis/rulez.py",
            "from ..exceptions import ReproError\n",
        )
        report = run_rule(tmp_path, "RPR009")
        assert len(report.findings) == 1
        assert "allowed: nothing" in report.findings[0].message


#: Two classes with slot/registry locks, as in the cluster supervisor.
SUPERVISOR_PRELUDE = """\
from threading import Lock


class WorkerSlot:
    def __init__(self) -> None:
        self.lock = Lock()


class Supervisor:
    def __init__(self) -> None:
        self._accept_lock = Lock()
        self.slot = WorkerSlot()
"""


class TestLockOrder:
    def test_injected_inversion_is_a_potential_deadlock(self, tmp_path):
        write(
            tmp_path,
            "pkg/cluster.py",
            SUPERVISOR_PRELUDE
            + """\

    def request(self) -> None:
        with self.slot.lock:
            with self._accept_lock:
                pass

    def broadcast(self) -> None:
        with self._accept_lock:
            with self.slot.lock:
                pass
""",
        )
        report = run_rule(tmp_path, "RPR010")
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "potential deadlock: lock-order cycle" in message
        assert "Supervisor._accept_lock" in message and "WorkerSlot.lock" in message
        # Both halves of the inversion are cited with their sites.
        assert message.count("pkg/cluster.py:") >= 2

    def test_inversion_through_a_call_is_found_transitively(self, tmp_path):
        # request() holds the slot lock and *calls* into the registry lock —
        # the shape of the real supervisor's recovery path.
        write(
            tmp_path,
            "pkg/cluster.py",
            SUPERVISOR_PRELUDE
            + """\

    def request(self) -> None:
        with self.slot.lock:
            self._attach()

    def _attach(self) -> None:
        with self._accept_lock:
            pass

    def broadcast(self) -> None:
        with self._accept_lock:
            with self.slot.lock:
                pass
""",
        )
        report = run_rule(tmp_path, "RPR010")
        assert len(report.findings) == 1
        assert "potential deadlock" in report.findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/cluster.py",
            SUPERVISOR_PRELUDE
            + """\

    def request(self) -> None:
        with self._accept_lock:
            with self.slot.lock:
                pass

    def broadcast(self) -> None:
        with self._accept_lock:
            with self.slot.lock:
                pass
""",
        )
        report = run_rule(tmp_path, "RPR010")
        assert report.ok

    def test_reentrant_same_lock_nesting_makes_no_edge(self, tmp_path):
        write(
            tmp_path,
            "pkg/cluster.py",
            SUPERVISOR_PRELUDE
            + """\

    def reenter(self) -> None:
        with self._accept_lock:
            with self._accept_lock:
                pass
""",
        )
        report = run_rule(tmp_path, "RPR010")
        assert report.ok


class TestBlockingInAsync:
    def test_time_sleep_in_async_def_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            import time


            async def tick() -> None:
                time.sleep(0.1)
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "blocking call time.sleep()" in message
        assert "async def 'tick'" in message
        assert "create_thread_pool" in message

    def test_sync_service_method_on_typed_receiver_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            class SessionService:
                def create(self, table):
                    return table


            async def drive(service: SessionService) -> None:
                service.create("t")
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert len(report.findings) == 1
        assert "direct sync-service call SessionService.create()" in report.findings[0].message

    def test_bound_method_offloaded_to_executor_is_exempt(self, tmp_path):
        # Passing the bound method does not *call* it on the loop thread.
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            from functools import partial


            class SessionService:
                def create(self, table):
                    return table


            async def drive(service: SessionService, loop) -> None:
                await loop.run_in_executor(None, partial(service.create, "t"))
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert report.ok

    def test_nested_sync_def_is_a_separate_context(self, tmp_path):
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            import time


            async def schedule() -> object:
                def worker() -> None:
                    time.sleep(0.1)

                return worker
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert report.ok

    def test_descriptor_passing_in_async_def_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/transport.py",
            """\
            def send_connection(channel, conn):
                return None
            """,
        )
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            from pkg.transport import send_connection


            async def hand_over(channel, conn) -> None:
                send_connection(channel, conn)
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "blocking transport call pkg.transport.send_connection()" in message
        assert "async def 'hand_over'" in message

    def test_plain_sync_def_is_exempt(self, tmp_path):
        write(
            tmp_path,
            "pkg/sync.py",
            """\
            import time


            def tick() -> None:
                time.sleep(0.1)
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert report.ok


class TestResourceLifecycle:
    def test_unowned_connection_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/net.py",
            """\
            from pkg.transport import FramedConnection


            def dial(sock):
                conn = FramedConnection(sock)
                conn.send(b"hello")
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "FramedConnection constructed in 'dial'" in message
        assert "has no owner on some path" in message

    def test_close_outside_try_finally_is_still_a_leak(self, tmp_path):
        write(
            tmp_path,
            "pkg/net.py",
            """\
            from pkg.transport import FramedConnection


            def dial(sock):
                conn = FramedConnection(sock)
                conn.send(b"hello")
                conn.close()
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        assert "closed only outside try/finally" in report.findings[0].message

    def test_popen_without_owner_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/spawn.py",
            """\
            from subprocess import Popen


            def launch(cmd):
                proc = Popen(cmd)
                proc.wait()
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        assert "Popen constructed in 'launch'" in report.findings[0].message

    def test_stored_on_self_without_lifecycle_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/holder.py",
            """\
            from pkg.transport import FramedConnection


            class Holder:
                def __init__(self, sock) -> None:
                    self.conn = FramedConnection(sock)
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        assert "no close/shutdown/__exit__ lifecycle method" in report.findings[0].message

    def test_sanctioned_ownership_shapes_are_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/net.py",
            """\
            from pkg.transport import FramedConnection


            def ok_with(sock):
                with FramedConnection(sock) as conn:
                    conn.send(b"hello")


            def ok_finally(sock):
                conn = FramedConnection(sock)
                try:
                    conn.send(b"hello")
                finally:
                    conn.close()


            def ok_return(sock):
                conn = FramedConnection(sock)
                return conn


            def ok_close_on_error(sock, register):
                conn = FramedConnection(sock)
                try:
                    register(conn)
                except BaseException:
                    conn.close()
                    raise


            def ok_exit_stack(sock, stack):
                conn = stack.enter_context(FramedConnection(sock))
                return None


            class Owner:
                def __init__(self, sock) -> None:
                    self.conn = FramedConnection(sock)

                def close(self) -> None:
                    self.conn.close()
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert report.ok

    def test_framed_pair_leaks_once_per_site(self, tmp_path):
        write(
            tmp_path,
            "pkg/transport.py",
            """\
            def framed_pair(limit):
                return 1, 2
            """,
        )
        write(
            tmp_path,
            "pkg/net.py",
            """\
            from pkg.transport import framed_pair


            def both_leak():
                a, b = framed_pair(10)
                return None
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        assert "framed_pair()" in report.findings[0].message


    def test_received_connection_without_owner_is_flagged(self, tmp_path):
        write(
            tmp_path,
            "pkg/transport.py",
            """\
            def recv_connection(channel, limit):
                return channel
            """,
        )
        write(
            tmp_path,
            "pkg/template.py",
            """\
            from pkg.transport import recv_connection


            def fork_one(channel, fork):
                conn = recv_connection(channel, 10)
                fork(conn)
                conn.close()


            def fork_owned(channel, fork):
                conn = recv_connection(channel, 10)
                try:
                    fork(conn)
                finally:
                    conn.close()
            """,
        )
        report = run_rule(tmp_path, "RPR012")
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "recv_connection() constructed in 'fork_one'" in message
        assert "closed only outside try/finally" in message


class TestProjectRulesIntegration:
    def test_project_findings_honor_inline_suppressions(self, tmp_path):
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            import time


            async def tick() -> None:
                time.sleep(0.1)  # repro-lint: disable=RPR011
            """,
        )
        report = run_rule(tmp_path, "RPR011")
        assert report.ok
        assert report.suppressed == 1

    def test_project_findings_honor_scope_excludes(self, tmp_path):
        write(
            tmp_path,
            "pkg/aio.py",
            """\
            import time


            async def tick() -> None:
                time.sleep(0.1)
            """,
        )
        analyzer = Analyzer(
            rules=rules_for(["RPR011"]),
            scopes={"RPR011": Scope(include=("*",), exclude=("pkg/aio.py",))},
            root=tmp_path,
        )
        assert analyzer.analyze_paths([tmp_path]).ok

    def test_all_four_project_rules_are_registered_and_scoped(self):
        codes = {rule.code for rule in rules_for(["RPR009", "RPR010", "RPR011", "RPR012"])}
        assert codes == {"RPR009", "RPR010", "RPR011", "RPR012"}
        for code in codes:
            assert code in PROJECT_SCOPES
