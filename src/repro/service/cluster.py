"""Multi-process sharded serving with supervision: :class:`ClusterSessionService`.

One Python process can only run one inference step at a time — the strategy
scoring that dominates a guided session is pure CPU work, and the GIL caps
the :class:`~repro.service.aio.AsyncSessionService` executor at one core no
matter how many threads it carries.  This module scales the serving layer
*out* instead of up: N workers, each running its own single-process
:class:`~repro.service.service.SessionService`, behind one facade that
speaks the exact same API — and, since the transport moved from
:mod:`multiprocessing` pipes to framed sockets, survives losing any of them.

Design
------
* **Consistent routing.**  The facade generates every ``session_id`` itself
  (a uuid4 hex string) and routes *every* command for a session to the
  worker ``int(session_id, 16) % num_workers``.  No routing table, no
  rebalancing: the id alone names the shard, for this facade or any other
  facade pointed at the same cluster layout.
* **Framed JSON over sockets.**  Workers are driven over the
  length-prefixed JSON framing of :mod:`repro.service.transport` — commands
  in, ``{"status": "ok"/"error", …}`` replies out, wire forms shared with
  the worker loop via :mod:`repro.service.wire`.  Every worker link is a
  socketpair the supervisor makes, and two backends speak the identical
  protocol over it: ``"process"`` (local processes, forked from one
  pre-imported template process per cluster, each handed its end of the
  pair as a descriptor — the default) and ``"thread"`` (in-process worker
  loops: no process start, no multi-core speedup; ideal for tests and
  fault injection).
* **Supervision.**  Every state-changing command's reply piggybacks the
  touched session's durable v3 document (the service-level write-through
  hook), so the supervisor always holds a replayable copy of every session.
  A broken socket — or a failed heartbeat, checked every
  ``heartbeat_interval`` seconds on idle workers — triggers recovery: the
  worker is respawned, every registered table is re-broadcast to it, every
  lost session is re-resumed from its document under its original id, and
  the in-flight command is retried **exactly once**.  Replay is label-driven
  and the strategies are deterministic, so a session cannot tell it
  happened: the wire trace is byte-identical to an undisturbed run
  (``benchmarks/bench_cluster_service.py --chaos`` gates exactly that, with
  a real ``SIGKILL`` mid-benchmark).  With ``respawn=False`` worker death
  surfaces as a typed :class:`~repro.service.wire.WorkerUnavailableError`
  naming the worker instead of a raw transport error.
* **Tables broadcast once.**  A candidate table is registered by content
  fingerprint and broadcast to every worker (rows, attribute types and
  relation provenance travel in a JSON table form), because any worker may
  be asked to host a session over it.  A table first seen by a
  `create`/`resume` travels inline to the routed worker and is broadcast to
  the rest only after success, so a failed command registers nothing
  anywhere.  Cell values must be JSON-representable (str/int/float/bool/
  None, plus dates, which the codec tags).
* **Same facade.**  :class:`ClusterSessionService` duck-types
  :class:`~repro.service.service.SessionService` — create / describe /
  next_question / answer / answer_many / save / resume / close, thread-safe,
  same exception types — so every consumer of the single-process service
  works unchanged: wrap it in an
  :class:`~repro.service.aio.AsyncSessionService` to get per-session event
  streams, backpressure, and the crowd dispatcher on top of real
  multi-core parallelism.

Quickstart::

    with ClusterSessionService(num_workers=4) as cluster:
        fingerprint = cluster.register_table(table)   # broadcast to workers
        sid = cluster.create(fingerprint, strategy="lookahead-entropy").session_id
        event = cluster.next_question(sid)            # runs in a worker process
        ...

``benchmarks/bench_cluster_service.py`` gates this layer: per-session wire
traces identical to the single-process service, a wall-clock speedup for
concurrent CPU-bound sessions on multi-core machines, and (``--chaos``)
trace-identical completion of every session across a mid-run worker kill.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import uuid
from collections.abc import Callable

from ..core.strategies.base import Strategy
from ..core.strategies.registry import create_strategy
from ..exceptions import ReproError
from ..relational.candidate import CandidateTable
from ..sessions.persistence import require_document, table_fingerprint
from .protocol import (
    Event,
    InteractionMode,
    LabelApplied,
    event_from_wire,
)
from .service import SessionDescriptor, SessionServiceError
from .stepper import AnswerSet, LabelLike, validate_mode_options
from .transport import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FramedConnection,
    TransportError,
    framed_pair,
    send_connection,
)
from .worker import serve_connection, template_entry
from .wire import (
    ClusterServiceError,
    ClusterWorkerError,
    WorkerUnavailableError,
    rebuild_error,
    table_from_wire,
    table_to_wire,
)

__all__ = [
    "ClusterServiceError",
    "ClusterSessionService",
    "ClusterWorkerError",
    "WorkerUnavailableError",
    "table_from_wire",
    "table_to_wire",
]

#: Default worker count: one per core, capped so a big machine does not fork
#: dozens of interpreters for a demo.
DEFAULT_WORKERS = max(1, min(8, os.cpu_count() or 1))

#: How often the supervisor pings idle workers (seconds); ``None`` disables.
DEFAULT_HEARTBEAT_INTERVAL = 2.0
#: How long a heartbeat ping may take before the worker counts as dead.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0
#: How long the worker template may take to answer a request, and a new
#: worker its start-up ping, before start-up fails.
DEFAULT_START_TIMEOUT = 30.0

_BACKENDS = ("process", "thread")


class _WorkerSlot:
    """The supervisor's view of one worker: connection, runner, and a lock.

    A worker executes one command at a time (its loop is serial), so the
    lock both serialises access to the connection and models the worker's
    real capacity; commands for sessions on *different* workers run in
    parallel.  The slot outlives any single worker incarnation —
    ``generation`` counts respawns.
    """

    __slots__ = ("index", "lock", "conn", "runner", "pid", "generation")

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.conn: FramedConnection | None = None
        self.runner: object | None = None  # _ForkedWorker or Thread
        self.pid: int | None = None
        self.generation = 0

    def exchange(self, payload: dict[str, object]) -> dict[str, object]:
        """One send/recv round trip.  Caller holds :attr:`lock`."""
        if self.conn is None:
            raise ConnectionClosedError(f"worker {self.index} has no connection")
        self.conn.send(payload)
        reply = self.conn.recv()
        if not isinstance(reply, dict):
            raise TransportError(
                f"worker {self.index} sent a non-object reply of type {type(reply).__name__}"
            )
        return reply


class _WorkerTemplate:
    """The process backend's worker factory: one pre-imported process that forks.

    The template is started once per cluster with the cluster's
    ``mp_context`` and runs :func:`~repro.service.worker.template_entry`,
    so it imports the worker module (numpy included) once; every worker,
    initial or respawned, is then an ``os.fork()`` of it requested over a
    private framed pipe.  A cluster pays one interpreter start-up, and a
    respawn costs a fork.  A template found dead is started again by the
    next :meth:`fork`.

    This is not the stdlib ``forkserver`` start method: on Python 3.11 its
    preload ignores the parent's ``sys.path`` (``forkserver.main`` never
    applies the ``sys_path``/``main_path`` it is sent), so where the package
    is on ``sys.path`` by hand rather than installed, preloading this module
    fails silently and every worker imports numpy again.

    Calls over the pipe are serialized: recoveries on different slots may
    launch workers concurrently.
    """

    def __init__(self, context: multiprocessing.context.BaseContext, timeout: float) -> None:
        self._context = context
        self._timeout = timeout
        self._lock = threading.Lock()
        self._process: multiprocessing.process.BaseProcess | None = None
        self._control: FramedConnection | None = None
        self._stopped = False

    def fork(self, max_frame_bytes: int) -> tuple[FramedConnection, _ForkedWorker]:
        """Fork one worker; return the supervisor's end of its socketpair and it.

        The pair is made only once the template runs, under the lock, and the
        worker's end is closed here as soon as it is passed: a template
        started by ``fork`` copies every descriptor open in this process, and
        a worker end copied into it (and into every worker it forks later)
        would keep that worker's death from ever reading as EOF.

        A template that died since the last call is noticed only when a
        request to it fails, so this tries twice: the second attempt starts a
        new template.  Raises :class:`ClusterServiceError` when both attempts
        fail or the fork itself fails.
        """
        with self._lock:
            for _attempt in range(2):
                if self._stopped:
                    raise ClusterServiceError("the cluster session service is shut down")
                if self._process is None or not self._process.is_alive():
                    self._discard_locked()
                    self._start_locked()
                process = self._process
                parent_conn, worker_conn = framed_pair(max_frame_bytes)
                try:
                    reply = self._call_locked(
                        {"cmd": "fork", "max_frame_bytes": max_frame_bytes}, worker_conn
                    )
                except ConnectionClosedError as exc:
                    parent_conn.close()
                    failure = exc
                    continue
                except BaseException:
                    parent_conn.close()
                    raise
                finally:
                    worker_conn.close()  # the template forks around its own copy
                pid = reply.get("pid")
                if not isinstance(pid, int):
                    parent_conn.close()
                    raise ClusterServiceError(
                        f"the worker template could not fork: {reply.get('error')}"
                    )
                return parent_conn, _ForkedWorker(self, process, pid)
        raise ClusterServiceError(f"no worker could be started ({failure})") from failure

    def stop(self, timeout: float) -> None:
        """Close the pipe and join the template, which kills and reaps its workers."""
        with self._lock:
            self._stopped = True
            self._discard_locked(timeout)

    def ask(self, worker: _ForkedWorker, command: str) -> dict[str, object] | None:
        """Send ``command`` about one worker to the template that forked it.

        ``None`` once that template is gone.
        """
        with self._lock:
            if worker.template_process is not self._process:
                return None
            try:
                return self._call_locked({"cmd": command, "pid": worker.pid})
            except ConnectionClosedError:
                return None

    def _start_locked(self) -> None:
        control, template_end = framed_pair()
        try:
            process = self._context.Process(
                target=template_entry,
                args=(template_end, control),
                name="repro-cluster-template",
                daemon=True,
            )
            process.start()
            control.settimeout(self._timeout)
        except BaseException:
            control.close()
            raise
        finally:
            template_end.close()  # the template holds its own copy
        self._process, self._control = process, control

    def _call_locked(
        self, request: dict[str, object], conn: FramedConnection | None = None
    ) -> dict[str, object]:
        """One request (passing ``conn`` along with it, if given) and its reply."""
        try:
            self._control.send(request)
            if conn is not None:
                send_connection(self._control, conn)
            reply = self._control.recv()
        except TransportError as exc:
            self._discard_locked()
            raise ConnectionClosedError(
                f"the worker template stopped answering ({exc})"
            ) from exc
        if not isinstance(reply, dict):
            self._discard_locked()
            raise ConnectionClosedError("the worker template sent a non-object reply")
        return reply

    def _discard_locked(self, timeout: float = 5.0) -> None:
        """Close the pipe to the current template and join it (killing it if stuck)."""
        control, process = self._control, self._process
        self._control = self._process = None
        if control is not None:
            control.close()
        if process is not None:
            # Polled, not ``join(timeout)``: that waits for the template's
            # sentinel pipe, which the workers it forked hold open, so a
            # killed template would look alive while its orphans run.
            _poll_exit(process.is_alive, timeout)
            if process.is_alive():  # pragma: no cover - stuck template
                process.kill()
            process.join()


class _ForkedWorker:
    """A worker forked by the template: the slice of ``Process`` the supervisor uses."""

    __slots__ = ("_template", "template_process", "pid")

    def __init__(
        self,
        template: _WorkerTemplate,
        template_process: multiprocessing.process.BaseProcess,
        pid: int,
    ) -> None:
        self._template = template
        self.template_process = template_process
        self.pid = pid

    def orphaned(self) -> bool:
        """Whether the worker may have outlived its template.

        A template that exits on its own has reaped every worker it forked;
        one killed by a signal leaves its workers running, reparented, until
        their supervisor connection closes.
        """
        exitcode = self.template_process.exitcode
        return exitcode is not None and exitcode < 0

    def kill(self) -> None:
        """SIGKILL the worker; the live template that forked it also reaps it."""
        if self._template.ask(self, "kill") is None and self.orphaned():
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def is_alive(self) -> bool:
        reply = self._template.ask(self, "alive")
        if reply is not None:
            return bool(reply.get("alive"))
        if not self.orphaned():
            return False
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def join(self, timeout: float) -> None:
        """Wait for the worker to exit; an orphan is init's to reap, not ours."""
        if not self.orphaned():
            _poll_exit(self.is_alive, timeout)


def _poll_exit(alive: Callable[[], bool], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.01)


class ClusterSessionService:
    """Shards sessions across N supervised workers behind the `SessionService` API.

    Parameters
    ----------
    num_workers:
        How many workers to run (default: one per core, capped at 8).  Each
        runs its own :class:`~repro.service.service.SessionService`.
    mp_context:
        The :mod:`multiprocessing` start method of the one template process
        that ``backend="process"`` forks every worker from (default
        ``"spawn"`` — safe in processes that also run threads or an asyncio
        loop).  Workers are forks of the template whatever the method, so
        ``"fork"`` no longer starts them faster; it only spares the template
        re-importing the caller's ``__main__``.
    backend:
        ``"process"`` (default) forks local worker processes from the
        cluster's template process, each handed its end of a socketpair.
        ``"thread"`` runs the worker loops on in-process threads over
        socketpairs (no process start, no multi-core speedup — for tests,
        fault injection, and single-core boxes).
    heartbeat_interval / heartbeat_timeout:
        Idle workers are pinged every ``heartbeat_interval`` seconds; a ping
        that fails — or takes longer than ``heartbeat_timeout`` — triggers
        recovery without waiting for the next command.  ``None`` disables
        the heartbeat (death is still detected by the broken socket on the
        next command).
    respawn:
        When ``True`` (default), a dead worker is transparently replaced:
        respawned, re-sent every registered table, re-resumed every lost
        session from its write-through document, and the in-flight command
        retried exactly once.  When ``False``, worker death raises
        :class:`~repro.service.wire.WorkerUnavailableError` naming the
        worker.
    start_timeout:
        How long the worker template may take to answer a request (its
        first answer waits for its imports), and each worker its start-up
        ping.
    connection_wrapper:
        ``(conn, worker_index) -> conn`` applied to every worker connection
        as it is adopted — the fault-injection seam
        (``tests.chaos.faults.FaultyTransport``).

    Thread-safety: every public method may be called from any thread, like
    the single-process service.  Commands against sessions on different
    workers run in parallel (that is the point); commands against the same
    worker serialise on its connection.  Exceptions mirror the
    single-process service — :class:`SessionServiceError` (unknown ids),
    ``ValueError`` / :class:`~repro.exceptions.StrategyError` (bad options),
    :class:`~repro.exceptions.InconsistentLabelError` (contradictions on a
    strict session) — re-raised in the parent with the worker's message;
    unrecoverable worker loss raises
    :class:`~repro.service.wire.WorkerUnavailableError`.

    Use as a context manager (or call :meth:`shutdown`) so the workers exit
    deterministically.  Process workers are forked by one template process
    per cluster, which SIGKILLs and reaps every worker it forked when it is
    stopped, terminated, or finds its pipe to the supervisor closed; a
    worker whose template was killed outright still exits when its own
    connection to the supervisor closes.  So no worker outlives the
    supervisor.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        mp_context: str = "spawn",
        *,
        backend: str = "process",
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        respawn: bool = True,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        connection_wrapper: Callable[[FramedConnection, int], FramedConnection] | None = None,
    ) -> None:
        count = DEFAULT_WORKERS if num_workers is None else num_workers
        if count < 1:
            raise ValueError(f"num_workers must be a positive integer, got {num_workers!r}")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self._backend = backend
        self._template = (
            _WorkerTemplate(multiprocessing.get_context(mp_context), start_timeout)
            if backend == "process"
            else None
        )
        self._respawn = bool(respawn)
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._start_timeout = start_timeout
        self._max_frame_bytes = max_frame_bytes
        self._connection_wrapper = connection_wrapper
        self._lock = threading.RLock()
        self._broadcast_lock = threading.Lock()
        self._stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        self._tables: dict[str, CandidateTable] = {}
        self._broadcast_done: set[str] = set()
        self._sessions: dict[str, dict[str, object]] = {}
        self._closed = False
        self._workers = [_WorkerSlot(index) for index in range(count)]
        try:
            for slot in self._workers:
                self._launch(slot)
            # One bounded ping per worker surfaces start-up failures at
            # construction, not at the first command.
            for slot in self._workers:
                with slot.lock:
                    try:
                        self._ping(slot, self._start_timeout)
                    except TransportError as exc:
                        raise ClusterServiceError(
                            f"cluster worker {slot.index} failed its start-up ping ({exc})"
                        ) from exc
            if self._heartbeat_interval and self._respawn:
                self._heartbeat_thread = threading.Thread(
                    target=self._heartbeat_loop, name="repro-cluster-heartbeat", daemon=True
                )
                self._heartbeat_thread.start()
        except BaseException:
            self.shutdown()
            raise

    # ------------------------------------------------------------------ #
    # Worker lifecycle: launch and recovery
    # ------------------------------------------------------------------ #
    def _launch(self, slot: _WorkerSlot) -> None:
        """Start a worker on a fresh socketpair and adopt the supervisor's end.

        A thread worker serves its end in place; the template forks a process
        worker around its end (see :meth:`_WorkerTemplate.fork`).
        """
        if self._template is None:
            parent_conn, worker_conn = framed_pair(self._max_frame_bytes)
            runner = threading.Thread(
                target=serve_connection,
                args=(worker_conn,),
                name=f"repro-cluster-{slot.index}",
                daemon=True,
            )
            try:
                runner.start()
            except BaseException:
                # The pair has no owner yet (RPR012).
                parent_conn.close()
                worker_conn.close()
                raise
            pid = os.getpid()
        else:
            parent_conn, runner = self._template.fork(self._max_frame_bytes)
            pid = runner.pid
        slot.runner, slot.pid = runner, pid
        try:
            slot.conn = self._wrap(parent_conn, slot)
        except BaseException:
            parent_conn.close()  # a custom connection wrapper failed
            raise

    def _wrap(self, conn: FramedConnection, slot: _WorkerSlot) -> FramedConnection:
        if self._connection_wrapper is not None:
            return self._connection_wrapper(conn, slot.index)
        return conn

    def _recover_locked(self, slot: _WorkerSlot, cause: BaseException) -> None:
        """Replace a dead worker and replay its state.  Caller holds ``slot.lock``.

        Respawns the backend runner, re-registers every table the cluster
        knows, and re-resumes every session routed to this shard from its
        write-through document — under its original id, so routing is
        untouched.  Raises :class:`WorkerUnavailableError` when respawn is
        disabled or the replacement cannot be brought up.
        """
        with self._lock:
            closed = self._closed
        if closed:
            raise ClusterServiceError("the cluster session service is shut down")
        if not self._respawn:
            error = WorkerUnavailableError(
                f"cluster worker {slot.index} is unreachable "
                f"({type(cause).__name__}: {cause}) and respawn is disabled; "
                "its sessions are lost",
                worker_index=slot.index,
            )
            raise error from cause
        if slot.conn is not None:
            slot.conn.close()
        self._reap(slot)
        try:
            self._launch(slot)
            slot.generation += 1
            with self._lock:
                tables = dict(self._tables)
                sessions = {
                    sid: document
                    for sid, document in self._sessions.items()
                    if int(sid, 16) % len(self._workers) == slot.index
                }
            for table in tables.values():
                self._expect_ok(
                    slot.exchange({"cmd": "register_table", "table": table_to_wire(table)})
                )
            # Deterministic replay order; the documents carry everything —
            # labels, mode/strategy/k, strictness — so each session comes
            # back exactly where its last acknowledged command left it.
            for sid in sorted(sessions):
                document = sessions[sid]
                self._expect_ok(
                    slot.exchange(
                        {
                            "cmd": "resume",
                            "document": document,
                            "fingerprint": document.get("table_fingerprint"),
                            "session_id": sid,
                        }
                    )
                )
        except WorkerUnavailableError:
            raise
        except (TransportError, ClusterServiceError) as exc:
            error = WorkerUnavailableError(
                f"cluster worker {slot.index} died ({type(cause).__name__}: {cause}) "
                f"and its replacement could not be brought up ({exc}); "
                "its sessions are lost",
                worker_index=slot.index,
            )
            raise error from exc

    def _reap(self, slot: _WorkerSlot) -> None:
        """Stop the previous runner, if any: kill it if it still runs, then wait."""
        runner = slot.runner
        if runner is not None and hasattr(runner, "kill"):  # a forked process
            if runner.is_alive():
                runner.kill()
            runner.join(timeout=5.0)
        # A thread runner exits on its own once its socketpair end closes.

    def _ping(self, slot: _WorkerSlot, timeout: float) -> None:
        """One ping that must be answered within ``timeout``.  Caller holds ``slot.lock``."""
        slot.conn.settimeout(timeout)
        self._expect_ok(slot.exchange({"cmd": "ping"}))
        slot.conn.settimeout(None)

    def _heartbeat_loop(self) -> None:
        """Ping idle workers; recover the ones that fail.  Daemon thread.

        Busy workers are skipped (non-blocking lock acquire): the command
        holding the lock detects death itself the moment the socket breaks,
        and pinging behind it would only queue latency.
        """
        while not self._stop.wait(self._heartbeat_interval):
            for slot in self._workers:
                if self._stop.is_set():
                    break
                if not slot.lock.acquire(blocking=False):
                    continue
                try:
                    try:
                        self._ping(slot, self._heartbeat_timeout)
                    except TransportError as exc:
                        try:
                            self._recover_locked(slot, exc)
                        except ReproError:
                            pass  # unrecoverable now; the next command reports it
                finally:
                    slot.lock.release()

    def kill_worker(self, index: int) -> None:
        """Ungracefully kill one worker — the fault-injection and ops hook.

        ``SIGKILL`` for process workers (their template reaps them at once),
        severing the connection for thread ones (their serve loop sees EOF
        and exits).  Takes no worker lock: the point is to yank the
        worker out from under whatever is in flight, exactly like a machine
        loss.  With ``respawn=True`` the supervision layer absorbs it; with
        ``respawn=False`` the next command on this shard raises
        :class:`WorkerUnavailableError`.
        """
        slot = self._workers[index]
        runner = slot.runner
        if runner is not None and hasattr(runner, "kill"):
            runner.kill()
        conn = slot.conn
        if conn is not None:
            conn.close()

    def worker_states(self) -> list[dict[str, object]]:
        """A supervision snapshot per worker (approximate under concurrency).

        Each entry carries ``index``, ``backend``, ``generation`` (how many
        times the slot was respawned), ``pid`` (of the current incarnation;
        the supervisor's own pid for thread workers) and ``alive``.
        """
        states: list[dict[str, object]] = []
        for slot in self._workers:
            runner = slot.runner
            alive = runner is not None and runner.is_alive()
            states.append(
                {
                    "index": slot.index,
                    "backend": self._backend,
                    "generation": slot.generation,
                    "pid": slot.pid,
                    "alive": bool(alive),
                }
            )
        return states

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """How many workers the cluster runs."""
        return len(self._workers)

    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise ClusterServiceError("the cluster session service is shut down")

    def _shard(self, session_id: str) -> int:
        try:
            return int(session_id, 16) % len(self._workers)
        except (TypeError, ValueError):
            # Ids the cluster did not mint cannot name a shard; mirror the
            # single-process service's unknown-id error.
            raise SessionServiceError(f"unknown session id {session_id!r}") from None

    def worker_index(self, session_id: str) -> int:
        """The shard a session id routes to: ``int(session_id, 16) % num_workers``."""
        return self._shard(session_id)

    def _worker_for(self, session_id: str) -> _WorkerSlot:
        self._check_open()
        return self._workers[self._shard(session_id)]

    @staticmethod
    def _expect_ok(reply: dict[str, object]) -> object:
        if reply.get("status") == "ok":
            return reply.get("result")
        raise rebuild_error(reply)

    def _request(self, slot: _WorkerSlot, payload: dict[str, object]) -> object:
        """One supervised round trip: exchange, recover on death, retry once.

        The retry is observationally exactly-once: a command whose reply was
        lost was never recorded in the supervisor's write-through document,
        so the replayed worker is in the pre-command state and the retry
        applies it for the first time — label-driven replay makes the rerun
        indistinguishable from an undisturbed first run.
        """
        with slot.lock:
            try:
                reply = slot.exchange(payload)
            except TransportError as exc:
                self._recover_locked(slot, exc)
                try:
                    reply = slot.exchange(payload)
                except TransportError as retry_exc:
                    error = WorkerUnavailableError(
                        f"cluster worker {slot.index} died again replaying "
                        f"{payload.get('cmd')!r} after a respawn ({retry_exc}); "
                        "its sessions are lost",
                        worker_index=slot.index,
                    )
                    raise error from retry_exc
            return self._consume_reply(payload, reply)

    def _consume_reply(self, payload: dict[str, object], reply: dict[str, object]) -> object:
        """Harvest write-through documents, then unwrap the reply."""
        documents = reply.get("documents")
        if isinstance(documents, dict):
            with self._lock:
                if not self._closed:
                    self._sessions.update(documents)
        ok = reply.get("status") == "ok"
        if ok and payload.get("cmd") == "close":
            with self._lock:
                self._sessions.pop(payload.get("session_id"), None)
        if not ok:
            raise rebuild_error(reply)
        return reply.get("result")

    def _broadcast(self, payload: dict[str, object]) -> list[object]:
        self._check_open()
        return [self._request(slot, payload) for slot in self._workers]

    @staticmethod
    def _label_to_wire(label: LabelLike) -> object:
        value = getattr(label, "value", label)
        if not isinstance(value, (str, bool)):
            raise ClusterServiceError(
                f"label {label!r} cannot cross the process boundary; "
                "pass a Label, its string value, or a boolean"
            )
        return value

    @staticmethod
    def _strategy_to_wire(strategy: Strategy | str | None) -> str | None:
        if strategy is None or isinstance(strategy, str):
            return strategy
        raise ClusterServiceError(
            "a cluster session takes its strategy by registry name "
            f"(got the instance {strategy!r}); strategy objects cannot cross "
            "the process boundary"
        )

    # ------------------------------------------------------------------ #
    # Table registry
    # ------------------------------------------------------------------ #
    def register_table(self, table: CandidateTable) -> str:
        """Register a table and broadcast it to every worker (idempotent).

        Returns the content fingerprint.  The rows travel to each worker
        exactly once per cluster (plus once more to any worker that gets
        respawned); re-registering the same content is free.  Raises
        :class:`ClusterServiceError` for cell values JSON cannot carry, or
        when a worker is unreachable and cannot be replaced.
        """
        fingerprint = table_fingerprint(table)
        with self._broadcast_lock:
            with self._lock:
                if self._closed:
                    raise ClusterServiceError("the cluster session service is shut down")
                if fingerprint in self._broadcast_done:
                    return fingerprint
                # Recorded before the broadcast so a worker dying *during*
                # the broadcast gets this table replayed like any other.
                self._tables.setdefault(fingerprint, table)
            wire = table_to_wire(table)
            echoed = [
                self._request(slot, {"cmd": "register_table", "table": wire})
                for slot in self._workers
            ]
            if any(echo != fingerprint for echo in echoed):
                raise ClusterServiceError(
                    f"table {table.name!r} changed fingerprint crossing the wire; "
                    "its cell values do not round-trip through JSON"
                )
            with self._lock:
                self._broadcast_done.add(fingerprint)
        return fingerprint

    def tables(self) -> dict[str, str]:
        """The registered tables: ``fingerprint -> table name``."""
        with self._lock:
            return {fp: table.name for fp, table in self._tables.items()}

    def table(self, fingerprint: str) -> CandidateTable:
        """The registered table with the given fingerprint.

        Served from the facade's own registry (every registered table is on
        every worker); raises :class:`SessionServiceError` for an unknown
        fingerprint.
        """
        with self._lock:
            try:
                return self._tables[fingerprint]
            except KeyError:
                raise SessionServiceError(
                    f"no table registered under fingerprint {fingerprint!r}"
                ) from None

    def _table_reference(
        self, table: CandidateTable | str
    ) -> tuple[str, dict | None, CandidateTable | None]:
        """How the routed worker gets the table: ``(fingerprint, inline wire, instance)``.

        A table instance the cluster has not fully broadcast yet travels
        *inline* with the create/resume command instead of being broadcast
        up front — the worker-side create is atomic, so a failed command
        registers the table nowhere; :meth:`_finish_registration` broadcasts
        it to the remaining workers only after success.  Fully-broadcast
        fingerprints yield no inline form.
        """
        if isinstance(table, CandidateTable):
            fingerprint = table_fingerprint(table)
            with self._lock:
                if fingerprint in self._broadcast_done:
                    return fingerprint, None, None
            return fingerprint, table_to_wire(table), table
        instance = self.table(table)  # raises SessionServiceError when unknown
        with self._lock:
            if table in self._broadcast_done:
                return table, None, None
        return table, table_to_wire(instance), instance

    def _finish_registration(
        self,
        fingerprint: str,
        table: CandidateTable,
        wire: dict,
        owner: _WorkerSlot,
    ) -> None:
        """Record a table the routed worker just adopted; broadcast to the rest."""
        with self._broadcast_lock:
            with self._lock:
                if self._closed or fingerprint in self._broadcast_done:
                    return  # a concurrent command completed the broadcast
            for slot in self._workers:
                if slot is not owner:
                    self._request(slot, {"cmd": "register_table", "table": wire})
            with self._lock:
                self._tables.setdefault(fingerprint, table)
                self._broadcast_done.add(fingerprint)

    @staticmethod
    def _mint_session_id(session_id: str | None) -> str:
        """A fresh hex id, or the caller's — which must name a shard."""
        if session_id is None:
            return uuid.uuid4().hex
        try:
            int(session_id, 16)
        except (TypeError, ValueError):
            raise ClusterServiceError(
                f"cluster session ids must be hexadecimal strings, got {session_id!r} "
                "(the worker shard is derived from the id)"
            ) from None
        return session_id

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    def create(
        self,
        table: CandidateTable | str,
        mode: InteractionMode | str = InteractionMode.GUIDED,
        strategy: Strategy | str | None = None,
        k: int | None = None,
        strict: bool = True,
        session_id: str | None = None,
    ) -> SessionDescriptor:
        """Create a session on the worker its id hashes to.

        Arguments and validation are those of
        :meth:`~repro.service.service.SessionService.create`; the strategy
        must be a registry *name* (instances cannot cross the process
        boundary) and an explicit ``session_id`` must be hexadecimal (the
        shard is derived from it).  A new table instance travels inline to
        the routed worker and is broadcast to the rest only after success,
        so a failed create registers neither a session nor a table —
        anywhere in the cluster.
        """
        strategy_name = self._strategy_to_wire(strategy)
        validate_mode_options(mode, {"strategy": strategy_name, "k": k})
        if strategy_name is not None:
            create_strategy(strategy_name)  # unknown names fail before any send
        fingerprint, wire, instance = self._table_reference(table)
        session_id = self._mint_session_id(session_id)
        worker = self._worker_for(session_id)
        request = {
            "cmd": "create",
            "fingerprint": fingerprint,
            "mode": mode.value if isinstance(mode, InteractionMode) else mode,
            "strategy": strategy_name,
            "k": k,
            "strict": strict,
            "session_id": session_id,
        }
        if wire is not None:
            request["table"] = wire
        payload = self._request(worker, request)
        if wire is not None:
            with self._lock:
                # Recorded immediately: if this worker dies before the
                # broadcast below completes, recovery can still replay the
                # table (and this session) from the supervisor's registry.
                self._tables.setdefault(fingerprint, instance)
            self._finish_registration(fingerprint, instance, wire, worker)
        return SessionDescriptor.from_dict(payload)

    def resume(
        self,
        payload: dict[str, object],
        table: CandidateTable | str | None = None,
        session_id: str | None = None,
    ) -> SessionDescriptor:
        """Restore a saved session document on the worker its new id hashes to.

        Semantics of :meth:`~repro.service.service.SessionService.resume`,
        including the strictness pass-through (a lenient session resumes
        lenient on its worker) and the no-trace-on-failure guarantee: a new
        table instance travels inline to the routed worker and is broadcast
        to the rest only after the resume succeeds, so a malformed or
        corrupt document registers nothing anywhere.  The table is found
        like there — explicit instance, explicit fingerprint, or the
        document's fingerprint, which must already be registered with the
        cluster.
        """
        if table is None:
            fingerprint = require_document(payload).get("table_fingerprint")
            if not isinstance(fingerprint, str):
                raise SessionServiceError(
                    "the session document carries no table fingerprint; pass the table explicitly"
                )
            fingerprint, wire, instance = self._table_reference(fingerprint)
        else:
            fingerprint, wire, instance = self._table_reference(table)
        session_id = self._mint_session_id(session_id)
        worker = self._worker_for(session_id)
        request = {
            "cmd": "resume",
            "document": payload,
            "fingerprint": fingerprint,
            "session_id": session_id,
        }
        if wire is not None:
            request["table"] = wire
        reply = self._request(worker, request)
        if wire is not None:
            with self._lock:
                self._tables.setdefault(fingerprint, instance)
            self._finish_registration(fingerprint, instance, wire, worker)
        return SessionDescriptor.from_dict(reply)

    def session_ids(self) -> list[str]:
        """Ids of all live sessions, across all workers."""
        return [sid for ids in self._broadcast({"cmd": "session_ids"}) for sid in ids]

    def __len__(self) -> int:
        return len(self.session_ids())

    def describe(self, session_id: str) -> SessionDescriptor:
        """A snapshot of the session's kind and progress (from its worker)."""
        reply = self._request(
            self._worker_for(session_id), {"cmd": "describe", "session_id": session_id}
        )
        return SessionDescriptor.from_dict(reply)

    def close(self, session_id: str) -> SessionDescriptor:
        """Remove a session from its worker and return its final snapshot."""
        reply = self._request(
            self._worker_for(session_id), {"cmd": "close", "session_id": session_id}
        )
        return SessionDescriptor.from_dict(reply)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def next_question(self, session_id: str) -> Event:
        """The session's next protocol event, computed in its worker."""
        wire = self._request(
            self._worker_for(session_id), {"cmd": "next_question", "session_id": session_id}
        )
        return event_from_wire(wire)

    def answer(
        self, session_id: str, label: LabelLike, tuple_id: int | None = None
    ) -> LabelApplied:
        """Apply one label in the session's worker.

        Exceptions as for :meth:`~repro.service.service.SessionService.answer`,
        re-raised in the parent with the worker's message.
        """
        wire = self._request(
            self._worker_for(session_id),
            {
                "cmd": "answer",
                "session_id": session_id,
                "label": self._label_to_wire(label),
                "tuple_id": tuple_id,
            },
        )
        return event_from_wire(wire)

    def answer_many(self, session_id: str, answers: AnswerSet) -> list[LabelApplied]:
        """Apply a batch of ``tuple_id -> label`` answers in the worker.

        On a mid-batch error the events of the already-applied answers cross
        the boundary on the re-raised exception (``applied_events``), exactly
        like the single-process service.
        """
        pairs = answers.items() if hasattr(answers, "items") else answers
        wire_pairs = [
            [int(tuple_id), self._label_to_wire(label)] for tuple_id, label in pairs
        ]
        replies = self._request(
            self._worker_for(session_id),
            {"cmd": "answer_many", "session_id": session_id, "answers": wire_pairs},
        )
        return [event_from_wire(wire) for wire in replies]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, session_id: str) -> dict[str, object]:
        """The session as a v3 persistence document, taken in its worker."""
        return self._request(
            self._worker_for(session_id), {"cmd": "save", "session_id": session_id}
        )

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the heartbeat, every worker, and the worker template.  Idempotent.

        Live sessions die with their workers (save what must survive first);
        commands after shutdown raise :class:`ClusterServiceError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=timeout)
        for slot in self._workers:
            with slot.lock:
                if slot.conn is None:
                    continue
                try:
                    # A worker that never answers must not hang shutdown:
                    # past the deadline the template SIGKILLs it below.
                    slot.conn.settimeout(timeout)
                    slot.conn.send({"cmd": "shutdown"})
                    slot.conn.recv()
                except TransportError:
                    pass
                slot.conn.close()
        if self._template is not None:
            self._template.stop(timeout)  # SIGKILLs and reaps its workers
        for slot in self._workers:
            runner = slot.runner
            if runner is None:
                continue
            if hasattr(runner, "kill"):
                runner.join(timeout=timeout)
                if runner.is_alive():  # pragma: no cover - stuck worker
                    runner.kill()
                    runner.join(timeout=timeout)
            else:
                runner.join(timeout=1.0)

    def __enter__(self) -> ClusterSessionService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        with self._lock:
            state = "closed" if self._closed else "open"
            tables = len(self._tables)
            sessions = len(self._sessions)
        return (
            f"ClusterSessionService(workers={len(self._workers)}, "
            f"backend={self._backend!r}, tables={tables}, "
            f"tracked_sessions={sessions}, {state})"
        )
