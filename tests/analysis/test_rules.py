"""Each invariant rule: one (or more) violating fixture and a clean fixture."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import PROJECT_SCOPES, Analyzer, rules_for


def run_rule(code: str, root: Path, relpath: str, source: str) -> list:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    analyzer = Analyzer(rules=rules_for([code]), scopes=PROJECT_SCOPES, root=root)
    return analyzer.analyze_paths([path]).findings


class TestSansIO:
    """RPR001: the core/protocol layers never do IO."""

    def test_flags_io_imports_and_calls(self, tmp_path):
        findings = run_rule(
            "RPR001",
            tmp_path,
            "src/repro/core/violating.py",
            """\
            import socket
            from http.server import HTTPServer
            import time

            def leak(state):
                print(state)
                data = open("dump.json").read()
                answer = input("? ")
                time.sleep(0.1)
                return data, answer
            """,
        )
        messages = [finding.message for finding in findings]
        assert len(findings) == 6
        assert any("'socket'" in message for message in messages)
        assert any("'http.server'" in message for message in messages)
        assert any("print()" in message for message in messages)
        assert any("open()" in message for message in messages)
        assert any("input()" in message for message in messages)
        assert any("time.sleep()" in message for message in messages)

    def test_clean_core_module_passes(self, tmp_path):
        findings = run_rule(
            "RPR001",
            tmp_path,
            "src/repro/core/clean.py",
            """\
            import time

            def score(masks):
                started = time.perf_counter()  # the allowed clock
                total = sum(masks)
                return total, time.perf_counter() - started
            """,
        )
        assert findings == []

    def test_relative_imports_are_not_confused_with_stdlib(self, tmp_path):
        findings = run_rule(
            "RPR001",
            tmp_path,
            "src/repro/core/relative.py",
            "from .http import helper\n",  # a *local* module named http
        )
        assert findings == []


class TestLockDiscipline:
    """RPR002: shared registries only under ``with self._lock``."""

    # A fixture modeled on repro.service.service.SessionService: registry
    # dicts bound in __init__ next to self._lock, mutated by the lifecycle
    # methods — with one injected unlocked write and one unlocked read.
    SESSION_SERVICE_FIXTURE = """\
    import threading
    import uuid


    class SessionService:
        def __init__(self):
            self._lock = threading.RLock()
            self._tables = {}
            self._sessions = {}

        def register_table(self, fingerprint, table):
            with self._lock:
                self._tables.setdefault(fingerprint, table)
            return fingerprint

        def create(self, table):
            session_id = uuid.uuid4().hex
            self._sessions[session_id] = table  # injected: unlocked write
            return session_id

        def describe(self, session_id):
            return self._sessions[session_id]  # injected: unlocked read

        def close(self, session_id):
            with self._lock:
                return self._sessions.pop(session_id)
    """

    def test_flags_injected_unlocked_registry_access(self, tmp_path):
        findings = run_rule(
            "RPR002", tmp_path, "src/repro/service/violating.py", self.SESSION_SERVICE_FIXTURE
        )
        flagged = {(finding.line, finding.message.split("'")[1]) for finding in findings}
        assert len(findings) == 2
        methods = {finding.message.split(" ")[0] for finding in findings}
        assert methods == {"SessionService.create", "SessionService.describe"}
        assert all(attr == "self._sessions" for _, attr in flagged)

    def test_locked_service_passes(self, tmp_path):
        findings = run_rule(
            "RPR002",
            tmp_path,
            "src/repro/service/clean.py",
            """\
            import threading


            class SessionService:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._sessions = {}

                def create(self, sid, stepper):
                    with self._lock:
                        self._sessions[sid] = stepper

                def close(self, sid):
                    with self._lock:
                        return self._sessions.pop(sid)
            """,
        )
        assert findings == []

    def test_foreign_lock_object_counts(self, tmp_path):
        # `with managed.lock:` / `with worker.lock:` dominate accesses too.
        findings = run_rule(
            "RPR002",
            tmp_path,
            "src/repro/service/foreign.py",
            """\
            import threading


            class Cluster:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._workers = {}

                def add(self, index, worker):
                    with self._lock:
                        self._workers[index] = worker

                def request(self, index, payload):
                    with self._lock:
                        worker = self._workers[index]
                    with worker.lock:
                        return worker.send(payload)
            """,
        )
        assert findings == []

    def test_class_without_lock_is_exempt(self, tmp_path):
        # The asyncio facade pattern: shared dicts, no self._lock — the
        # event loop is the serialisation mechanism, not a mutex.
        findings = run_rule(
            "RPR002",
            tmp_path,
            "src/repro/service/lockfree.py",
            """\
            class AsyncFacade:
                def __init__(self):
                    self._streams = {}

                def register(self, sid):
                    self._streams.setdefault(sid, [])
            """,
        )
        assert findings == []

    def test_attribute_only_mutated_in_init_is_not_a_registry(self, tmp_path):
        findings = run_rule(
            "RPR002",
            tmp_path,
            "src/repro/service/initonly.py",
            """\
            import threading


            class Pool:
                def __init__(self, count):
                    self._lock = threading.Lock()
                    self._workers = []
                    for index in range(count):
                        self._workers.append(index)

                def pick(self, shard):
                    return self._workers[shard % len(self._workers)]
            """,
        )
        assert findings == []


class TestLazyTables:
    """RPR003: no '.rows' / list(table) in the inference core."""

    def test_flags_materialization(self, tmp_path):
        findings = run_rule(
            "RPR003",
            tmp_path,
            "src/repro/core/strategies/violating.py",
            """\
            def score(table):
                for row in table.rows:
                    pass
                return list(table)
            """,
        )
        assert len(findings) == 2
        assert "'.rows'" in findings[0].message
        assert "list(table)" in findings[1].message

    def test_type_level_strategy_passes(self, tmp_path):
        findings = run_rule(
            "RPR003",
            tmp_path,
            "src/repro/core/strategies/clean.py",
            """\
            def score(state):
                sizes = state.type_sizes()
                counts = state.prune_counts_for_restricted(sizes)
                return max(counts, default=None)
            """,
        )
        assert findings == []

    def test_outside_core_is_out_of_scope(self, tmp_path):
        findings = run_rule(
            "RPR003",
            tmp_path,
            "src/repro/relational/candidate.py",
            "def materialize(table):\n    return table.rows\n",
        )
        assert findings == []


class TestSeededRng:
    """RPR005: no module-level RNG state anywhere."""

    def test_flags_module_level_random(self, tmp_path):
        findings = run_rule(
            "RPR005",
            tmp_path,
            "src/repro/datasets/violating.py",
            """\
            import random

            def draw(values):
                random.seed(7)
                random.shuffle(values)
                return random.choice(values)
            """,
        )
        assert len(findings) == 3
        assert all("random.Random(seed)" in finding.message for finding in findings)

    def test_flags_from_random_import(self, tmp_path):
        findings = run_rule(
            "RPR005",
            tmp_path,
            "src/repro/datasets/fromimport.py",
            "from random import shuffle\n",
        )
        assert len(findings) == 1

    def test_flags_numpy_legacy_global_generator(self, tmp_path):
        findings = run_rule(
            "RPR005",
            tmp_path,
            "src/repro/experiments/nprandom.py",
            """\
            try:
                import numpy as np
            except ImportError:
                np = None

            def noise(n):
                np.random.seed(0)
                return np.random.rand(n)
            """,
        )
        assert len(findings) == 2

    def test_seeded_instance_passes(self, tmp_path):
        findings = run_rule(
            "RPR005",
            tmp_path,
            "src/repro/datasets/clean.py",
            """\
            import random

            def draw(values, seed):
                rng = random.Random(seed)
                rng.shuffle(values)
                return rng.choice(values)
            """,
        )
        assert findings == []


class TestWireRegistry:
    """RPR006: tagged event dataclasses, the codec registry, and the union agree."""

    PROTOCOL_TEMPLATE = """\
    from dataclasses import dataclass
    from typing import Union


    @dataclass(frozen=True)
    class QuestionAsked:
        step: int
        type = "question"


    @dataclass(frozen=True)
    class LabelApplied:
        step: int
        type = "label_applied"

    {extra}

    Event = Union[{union}]

    _EVENT_CLASSES: dict[str, type] = {{
        cls.type: cls for cls in ({registry})
    }}
    """

    def render(self, extra: str = "", union: str = "", registry: str = "") -> str:
        return textwrap.dedent(self.PROTOCOL_TEMPLATE).format(
            extra=textwrap.dedent(extra),
            union=union or "QuestionAsked, LabelApplied",
            registry=registry or "QuestionAsked, LabelApplied",
        )

    def test_complete_registry_passes(self, tmp_path):
        findings = run_rule(
            "RPR006", tmp_path, "src/repro/service/protocol.py", self.render()
        )
        assert findings == []

    def test_flags_event_missing_from_registry_and_union(self, tmp_path):
        source = self.render(
            extra="""\

            @dataclass(frozen=True)
            class SessionPaused:
                step: int
                type = "paused"
            """,
        )
        findings = run_rule("RPR006", tmp_path, "src/repro/service/protocol.py", source)
        messages = [finding.message for finding in findings]
        assert len(findings) == 2
        assert any("missing from _EVENT_CLASSES" in message for message in messages)
        assert any("missing from the Event union" in message for message in messages)

    def test_flags_duplicate_wire_tag(self, tmp_path):
        source = self.render(
            extra="""\

            @dataclass(frozen=True)
            class QuestionAskedV2:
                step: int
                type = "question"
            """,
            union="QuestionAsked, LabelApplied, QuestionAskedV2",
            registry="QuestionAsked, LabelApplied, QuestionAskedV2",
        )
        findings = run_rule("RPR006", tmp_path, "src/repro/service/protocol.py", source)
        assert len(findings) == 1
        assert "collides" in findings[0].message

    def test_flags_stale_registry_entry(self, tmp_path):
        source = self.render(registry="QuestionAsked, LabelApplied, RemovedEvent")
        findings = run_rule("RPR006", tmp_path, "src/repro/service/protocol.py", source)
        assert len(findings) == 1
        assert "'RemovedEvent'" in findings[0].message

    def test_untagged_dataclass_is_ignored(self, tmp_path):
        source = self.render(
            extra="""\

            @dataclass(frozen=True)
            class NotAnEvent:
                value: int
            """,
        )
        findings = run_rule("RPR006", tmp_path, "src/repro/service/protocol.py", source)
        assert findings == []


class TestExecutorDiscipline:
    """RPR007: pools are lazy, owned, and created only by core/parallel."""

    def test_flags_module_level_pool(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/experiments/violating.py",
            """\
            from concurrent.futures import ThreadPoolExecutor

            EXECUTOR = ThreadPoolExecutor(max_workers=4)
            """,
        )
        assert len(findings) == 1
        assert "module-level ThreadPoolExecutor()" in findings[0].message

    def test_flags_creation_outside_sanctioned_module(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/experiments/rogue.py",
            """\
            import concurrent.futures

            def score(chunks):
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
                try:
                    return list(pool.map(sum, chunks))
                finally:
                    pool.shutdown()
            """,
        )
        assert len(findings) == 1
        assert "outside repro.core.parallel" in findings[0].message

    def test_sanctioned_module_may_create_lazily(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/core/parallel.py",
            """\
            from concurrent.futures import ThreadPoolExecutor

            def create_thread_pool(max_workers=None):
                return ThreadPoolExecutor(max_workers=max_workers)
            """,
        )
        assert findings == []

    def test_sanctioned_module_still_forbids_module_level_pools(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/core/parallel.py",
            """\
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=2)
            """,
        )
        assert len(findings) == 1
        assert "module-level" in findings[0].message

    def test_flags_pool_owner_without_shutdown_surface(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/service/leaky.py",
            """\
            from repro.core.parallel import create_thread_pool


            class Facade:
                def __init__(self):
                    self._executor = create_thread_pool(max_workers=2)

                def call(self, fn):
                    return self._executor.submit(fn)
            """,
        )
        assert len(findings) == 1
        assert "Facade owns a worker pool" in findings[0].message

    def test_pool_owner_with_close_passes(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/service/owned.py",
            """\
            from repro.core.parallel import create_thread_pool


            class Facade:
                def __init__(self):
                    self._executor = create_thread_pool(max_workers=2)

                def close(self):
                    self._executor.shutdown(wait=True)
            """,
        )
        assert findings == []

    def test_async_context_manager_counts_as_shutdown(self, tmp_path):
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/service/async_owned.py",
            """\
            from repro.core.parallel import create_thread_pool


            class Facade:
                def __init__(self):
                    self._executor = create_thread_pool(max_workers=2)

                async def __aexit__(self, exc_type, exc, tb):
                    self._executor.shutdown(wait=True)
            """,
        )
        assert findings == []

    def test_local_pool_variable_needs_no_class_shutdown(self, tmp_path):
        # A function-local pool (created via the sanctioned factory) is the
        # caller's business; the ownership check only watches `self` binds.
        findings = run_rule(
            "RPR007",
            tmp_path,
            "src/repro/experiments/localpool.py",
            """\
            from repro.core.parallel import create_thread_pool

            def fan_out(fn, chunks):
                with create_thread_pool(max_workers=2) as pool:
                    return list(pool.map(fn, chunks))
            """,
        )
        assert findings == []


class TestRawSockets:
    """RPR008: sockets and pipe connections exist only in service/transport.py."""

    def test_flags_socket_import_outside_transport(self, tmp_path):
        findings = run_rule(
            "RPR008",
            tmp_path,
            "src/repro/service/rogue.py",
            """\
            import socket

            def dial(host, port):
                return socket.create_connection((host, port))
            """,
        )
        assert len(findings) == 1
        assert "'socket'" in findings[0].message
        assert "FramedConnection" in findings[0].message

    def test_flags_from_socket_import_and_nested_import(self, tmp_path):
        findings = run_rule(
            "RPR008",
            tmp_path,
            "benchmarks/bench_rogue.py",
            """\
            from socket import socketpair

            def lazy():
                import socket
                return socket, socketpair
            """,
        )
        assert len(findings) == 2

    def test_flags_multiprocessing_connection_machinery(self, tmp_path):
        findings = run_rule(
            "RPR008",
            tmp_path,
            "src/repro/service/pipe_era.py",
            """\
            import multiprocessing
            from multiprocessing.connection import Connection
            from multiprocessing import Pipe

            def link():
                return multiprocessing.Pipe(duplex=True)
            """,
        )
        messages = [finding.message for finding in findings]
        assert len(findings) == 3  # plain `import multiprocessing` is fine
        assert any("'multiprocessing.connection'" in message for message in messages)
        assert any("multiprocessing.Pipe" in message for message in messages)
        assert any("multiprocessing.Pipe()" in message for message in messages)

    def test_transport_module_is_exempt(self, tmp_path):
        findings = run_rule(
            "RPR008",
            tmp_path,
            "src/repro/service/transport.py",
            """\
            import socket

            def listen(port):
                server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                server.bind(("127.0.0.1", port))
                return server
            """,
        )
        assert findings == []

    def test_process_spawning_cluster_is_clean(self, tmp_path):
        findings = run_rule(
            "RPR008",
            tmp_path,
            "src/repro/service/cluster_like.py",
            """\
            import multiprocessing

            from repro.service.transport import framed_pair, send_connection

            def launch(target):
                control, template_end = framed_pair()
                ctx = multiprocessing.get_context("spawn")
                process = ctx.Process(target=target, args=(template_end,), daemon=True)
                process.start()
                return process, control, send_connection
            """,
        )
        assert findings == []
