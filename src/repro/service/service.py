"""A thread-safe, multi-tenant session service over the sans-IO stepper.

:class:`SessionService` is the facade a web / crowd frontend talks to: it
manages many concurrent :class:`~repro.service.stepper.InferenceSession`\\ s
by id over a fingerprint-keyed table registry, with a small
create / describe / question / answer / save / resume / close lifecycle.  All
methods exchange plain data (protocol events, descriptors, JSON documents),
so mapping the service onto a transport is mechanical —
``examples/serve_sessions.py`` does it with the stdlib ``http.server``.

Concurrency model: a registry lock guards the table and session maps, and
each session carries its own lock, so sessions advance independently — two
labelers never block each other, only concurrent commands against the *same*
session serialise.

Saved sessions use the v3 persistence format, which records the interaction
mode, strategy name, ``k`` and strictness alongside the labels; :meth:`resume`
therefore restores a top-k session as a top-k session — and a lenient session
as a lenient one — in this service instance or a completely fresh one.
"""

from __future__ import annotations

import threading
import uuid
from collections.abc import Callable
from dataclasses import dataclass

from ..core.strategies.base import Strategy
from ..exceptions import ReproError
from ..relational.candidate import CandidateTable
from .protocol import Event, InteractionMode, LabelApplied
from .stepper import AnswerSet, InferenceSession, LabelLike, validate_mode_options


class SessionServiceError(ReproError):
    """A service command referenced an unknown session, table, or lifecycle state."""


@dataclass(frozen=True)
class SessionDescriptor:
    """A snapshot of one managed session, safe to serialise to clients.

    ``strict`` reports whether the session rejects contradicting labels, so a
    client can tell a lenient (crowd/noisy) session from a strict one — in
    particular after a save/resume cycle.
    """

    session_id: str
    mode: str
    strategy: str | None
    k: int | None
    strict: bool
    table_fingerprint: str
    table_name: str
    num_candidates: int
    num_labels: int
    converged: bool

    def as_dict(self) -> dict[str, object]:
        """Plain-dictionary form for JSON responses."""
        return {
            "session_id": self.session_id,
            "mode": self.mode,
            "strategy": self.strategy,
            "k": self.k,
            "strict": self.strict,
            "table_fingerprint": self.table_fingerprint,
            "table_name": self.table_name,
            "num_candidates": self.num_candidates,
            "num_labels": self.num_labels,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> SessionDescriptor:
        """Rebuild a descriptor from its :meth:`as_dict` form (wire transport)."""
        return cls(**{field: payload[field] for field in cls.__dataclass_fields__})


class _ManagedSession:
    """A stepper plus the bookkeeping the service needs around it."""

    __slots__ = ("session_id", "stepper", "fingerprint", "strategy_name", "lock")

    def __init__(
        self,
        session_id: str,
        stepper: InferenceSession,
        fingerprint: str,
        strategy_name: str | None,
    ) -> None:
        self.session_id = session_id
        self.stepper = stepper
        self.fingerprint = fingerprint
        self.strategy_name = strategy_name
        self.lock = threading.Lock()


class SessionService:
    """Manages many concurrent inference sessions over registered tables.

    Thread-safety: every public method may be called from any thread.  A
    registry lock guards the table and session maps; each session carries its
    own lock, so commands against *distinct* sessions run concurrently while
    commands against the *same* session serialise in arrival order.  Methods
    that reference a session raise :class:`SessionServiceError` when the id
    is unknown — including after :meth:`close` (so an answer racing a close
    fails cleanly rather than resurrecting the session).

    ``document_sink`` is the write-through hook the cluster's supervision
    layer builds on: when set, every state-changing command (create / resume
    / answer / answer_many) calls ``document_sink(session_id, document)``
    with the session's fresh v3 persistence document before returning — the
    same document :meth:`save` produces, taken under the session lock.  A
    supervisor that stores these can replay any session onto a fresh worker
    after a crash.  The sink runs inline on the command path; keep it cheap
    (append to a dict, enqueue) and never let it raise.
    """

    def __init__(
        self,
        document_sink: Callable[[str, dict[str, object]], None] | None = None,
    ) -> None:
        self._lock = threading.RLock()
        self._tables: dict[str, CandidateTable] = {}
        self._sessions: dict[str, _ManagedSession] = {}
        self._document_sink = document_sink

    # ------------------------------------------------------------------ #
    # Table registry
    # ------------------------------------------------------------------ #
    def register_table(self, table: CandidateTable) -> str:
        """Register a candidate table and return its fingerprint (idempotent).

        Registering the same table (by content) twice keeps the first
        instance.  Never raises for a valid table; the fingerprint hashing
        cost is paid once per table instance (memoised).

        Registration stays cheap: the table's equality-type index is not
        built here but by the first session created or resumed over it,
        and then shared by every later session over the same instance (see
        :meth:`~repro.core.equality_types.EqualityTypeIndex.shared`).  It
        lives as long as the table.
        """
        from ..sessions.persistence import table_fingerprint

        fingerprint = table_fingerprint(table)
        with self._lock:
            self._tables.setdefault(fingerprint, table)
        return fingerprint

    def tables(self) -> dict[str, str]:
        """The registered tables: ``fingerprint -> table name``."""
        with self._lock:
            return {fp: table.name for fp, table in self._tables.items()}

    def table(self, fingerprint: str) -> CandidateTable:
        """The registered table with the given fingerprint.

        Raises :class:`SessionServiceError` for an unknown fingerprint.
        """
        with self._lock:
            try:
                return self._tables[fingerprint]
            except KeyError:
                raise SessionServiceError(
                    f"no table registered under fingerprint {fingerprint!r}"
                ) from None

    def _peek_table(self, table: CandidateTable | str) -> tuple[CandidateTable, str]:
        """Resolve a table reference *without* mutating the registry.

        A table instance is fingerprinted but not yet registered — the
        registration happens atomically with the session registration in
        :meth:`_commit_session`, so a create/resume that fails validation
        later leaves no trace in the registry.
        """
        if isinstance(table, CandidateTable):
            from ..sessions.persistence import table_fingerprint

            return table, table_fingerprint(table)
        return self.table(table), table

    def _commit_session(self, managed: _ManagedSession, table: CandidateTable) -> None:
        """Register a fully built session (and its table) in one locked step."""
        with self._lock:
            if managed.session_id in self._sessions:
                raise SessionServiceError(
                    f"session id {managed.session_id!r} is already in use"
                )
            self._tables.setdefault(managed.fingerprint, table)
            self._sessions[managed.session_id] = managed

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
        """Create a session over a table (instance, or fingerprint of a registered one).

        Options are validated against the mode up front (see
        :func:`~repro.service.stepper.validate_mode_options`): raises
        :class:`ValueError` for options the mode does not accept or an
        unknown mode name, :class:`~repro.exceptions.StrategyError` for
        invalid option values or an unknown strategy name, and
        :class:`SessionServiceError` for an unknown table fingerprint or an
        already-used ``session_id``.  Neither a session nor the table is
        registered when any step fails.

        ``session_id`` lets a routing layer (e.g.
        :class:`~repro.service.cluster.ClusterSessionService`) pick the id
        up front; by default the service generates one.
        """
        parsed_mode = validate_mode_options(mode, {"strategy": strategy, "k": k})
        resolved, fingerprint = self._peek_table(table)
        stepper = InferenceSession(
            resolved, mode=parsed_mode, strategy=strategy, k=k, strict=strict
        )
        strategy_name = (
            stepper.strategy.name if parsed_mode is InteractionMode.GUIDED else None
        )
        if session_id is None:
            session_id = uuid.uuid4().hex
        managed = _ManagedSession(session_id, stepper, fingerprint, strategy_name)
        self._commit_session(managed, resolved)
        with managed.lock:
            self._write_through(managed)
            return self._describe(managed)

    def session_ids(self) -> list[str]:
        """Ids of all live sessions."""
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _managed(self, session_id: str) -> _ManagedSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise SessionServiceError(f"unknown session id {session_id!r}") from None

    def _describe(self, managed: _ManagedSession) -> SessionDescriptor:
        stepper = managed.stepper
        return SessionDescriptor(
            session_id=managed.session_id,
            mode=stepper.mode.value,
            strategy=managed.strategy_name,
            k=stepper.k if stepper.mode is InteractionMode.TOP_K else None,
            strict=stepper.state.strict,
            table_fingerprint=managed.fingerprint,
            table_name=stepper.table.name,
            num_candidates=len(stepper.table),
            # Count labels in the state, not this sitting's trace, so a
            # resumed session reports the labels it restored.
            num_labels=len(stepper.state.labeled_ids()),
            converged=stepper.is_converged(),
        )

    def describe(self, session_id: str) -> SessionDescriptor:
        """A snapshot of the session's kind and progress.

        Taken under the session lock, so the label count and convergence
        flag are mutually consistent.  Raises :class:`SessionServiceError`
        for an unknown session id.
        """
        managed = self._managed(session_id)
        with managed.lock:
            return self._describe(managed)

    def close(self, session_id: str) -> SessionDescriptor:
        """Remove a session from the service and return its final snapshot.

        Raises :class:`SessionServiceError` for an unknown session id — in
        particular on a double close (exactly one of two racing closes
        wins).  An in-flight command holding the session lock finishes
        before the final snapshot is taken.
        """
        with self._lock:
            try:
                managed = self._sessions.pop(session_id)
            except KeyError:
                raise SessionServiceError(f"unknown session id {session_id!r}") from None
        with managed.lock:
            return self._describe(managed)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def next_question(self, session_id: str) -> Event:
        """The session's next protocol event (question, batch, or converged).

        Raises :class:`SessionServiceError` for an unknown session id and
        :class:`~repro.exceptions.StrategyError` when the strategy cannot
        choose; the session is left unchanged on error.
        """
        managed = self._managed(session_id)
        with managed.lock:
            return managed.stepper.next_question()

    def answer(
        self, session_id: str, label: LabelLike, tuple_id: int | None = None
    ) -> LabelApplied:
        """Apply one label to the session (see :meth:`InferenceSession.submit`).

        Raises :class:`SessionServiceError` for an unknown session id,
        :class:`~repro.exceptions.StrategyError` when a batch/manual session
        is answered without ``tuple_id``, and
        :class:`~repro.exceptions.InconsistentLabelError` for an unparseable
        label or a contradicting one on a strict session.
        """
        managed = self._managed(session_id)
        with managed.lock:
            applied = managed.stepper.submit(label, tuple_id=tuple_id)
            self._write_through(managed)
            return applied

    def answer_many(self, session_id: str, answers: AnswerSet) -> list[LabelApplied]:
        """Apply a batch of ``tuple_id -> label`` answers to the session.

        The whole batch runs under the session lock (concurrent callers see
        it as atomic); exceptions as for :meth:`answer`.  Tuples made
        uninformative by earlier answers of the same batch are skipped, per
        :meth:`InferenceSession.submit_many`.
        """
        managed = self._managed(session_id)
        with managed.lock:
            try:
                return managed.stepper.submit_many(answers)
            finally:
                # Even on a mid-batch error: the applied prefix is real state
                # and a supervising write-through must not lose it.
                self._write_through(managed)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, session_id: str) -> dict[str, object]:
        """The session as a v3 persistence document (labels + session kind + strictness).

        Taken under the session lock, so the document is a consistent
        snapshot even while other threads are answering.  Raises
        :class:`SessionServiceError` for an unknown session id.
        """
        managed = self._managed(session_id)
        with managed.lock:
            return self._document(managed)

    def _document(self, managed: _ManagedSession) -> dict[str, object]:
        """The session's v3 document.  Caller holds the session lock."""
        from ..sessions.persistence import serialize_state

        stepper = managed.stepper
        return serialize_state(
            stepper.state,
            mode=stepper.mode.value,
            strategy=managed.strategy_name,
            k=stepper.k if stepper.mode is InteractionMode.TOP_K else None,
        )

    def _write_through(self, managed: _ManagedSession) -> None:
        """Push the session's current document to the sink, if one is set.

        Caller holds the session lock, so the document is the state the
        command just produced — the supervisor's copy is never older than
        the last acknowledged command.
        """
        if self._document_sink is not None:
            self._document_sink(managed.session_id, self._document(managed))

    def resume(
        self,
        payload: dict[str, object],
        table: CandidateTable | str | None = None,
        session_id: str | None = None,
    ) -> SessionDescriptor:
        """Restore a saved session as a new live session of the recorded kind.

        The table is taken from ``table`` (instance or fingerprint) or looked
        up in the registry by the document's fingerprint.  v1 documents (no
        session metadata) resume as guided sessions.  The document's
        strictness (v3; ``True`` for v1/v2) is passed through to the replayed
        state, so a lenient session resumes lenient — a contradicting label
        it tolerated before the save is tolerated after the resume.

        Raises :class:`SessionServiceError` when the fingerprint is unknown
        (or the document carries none and no table is passed),
        :class:`~repro.sessions.persistence.SessionPersistenceError` for a
        malformed, corrupted, or wrong-table document, and the
        :meth:`create` validation errors for inconsistent session metadata.
        Neither a session nor the table is registered when any step fails.
        """
        from ..sessions.persistence import deserialize_state, require_document, session_options

        if table is None:
            fingerprint = require_document(payload).get("table_fingerprint")
            if not isinstance(fingerprint, str):
                raise SessionServiceError(
                    "the session document carries no table fingerprint; pass the table explicitly"
                )
            resolved, fingerprint = self._peek_table(fingerprint)
        else:
            resolved, fingerprint = self._peek_table(table)
        options = session_options(payload)
        state = deserialize_state(payload, resolved, strict=options["strict"])
        mode = validate_mode_options(
            options["mode"], {"strategy": options["strategy"], "k": options["k"]}
        )
        stepper = InferenceSession(
            resolved,
            mode=mode,
            strategy=options["strategy"],
            k=options["k"],
            state=state,
        )
        strategy_name = stepper.strategy.name if mode is InteractionMode.GUIDED else None
        if session_id is None:
            session_id = uuid.uuid4().hex
        managed = _ManagedSession(session_id, stepper, fingerprint, strategy_name)
        self._commit_session(managed, resolved)
        with managed.lock:
            self._write_through(managed)
            return self._describe(managed)
