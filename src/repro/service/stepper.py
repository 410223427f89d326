"""The sans-IO stepper: the inference loop with the control flow inverted.

:class:`InferenceSession` is the pure state machine behind every interactive
surface of the library.  Instead of handing the engine a blocking
:class:`~repro.core.oracle.Oracle` callback, the *caller* drives the loop::

    session = InferenceSession(table, strategy="lookahead-entropy")
    while True:
        event = session.next_question()
        if isinstance(event, Converged):
            break
        answer = ...  # ask a human, an HTTP client, a crowd worker, ...
        session.submit(answer)
    print(session.inferred_query().describe())

The session performs no I/O whatsoever — it only turns commands
(:meth:`next_question`, :meth:`submit`, :meth:`submit_many`) into protocol
events (:class:`~repro.service.protocol.QuestionAsked`,
:class:`~repro.service.protocol.LabelApplied`, …), which makes it trivially
embeddable in a thread-per-request web server, an asyncio loop, a GUI, or a
test harness.  The blocking surfaces (``JoinInferenceEngine.run``, the
``sessions.modes`` classes, the console demo) are thin adapters over it.

A session covers all four interaction types of the demonstration scenario via
``mode``: guided (one strategy-chosen question at a time), top-k (a ranked
batch per round), and the two manual modes (the user labels whatever she
wants, with or without graying out).  The underlying
:class:`~repro.core.state.InferenceState` is driven polymorphically, so a
caller may supply a custom state subclass (the benchmarks use this to measure
the seed implementation through the identical driver).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping

from ..core.engine import InferenceTrace, Interaction
from ..core.examples import Label
from ..core.propagation import PropagationResult
from ..core.queries import JoinQuery
from ..core.state import InferenceState
from ..core.strategies.base import Strategy
from ..core.strategies.lookahead import EntropyStrategy, ranked_informative_ids
from ..core.strategies.registry import create_strategy
from ..exceptions import StrategyError
from ..relational.candidate import CandidateTable
from .protocol import (
    BatchQuestionsAsked,
    Event,
    InteractionMode,
    LabelApplied,
    QuestionAsked,
    converged_event,
)

LabelLike = Label | str | bool
AnswerSet = Mapping[int, LabelLike] | Iterable[tuple[int, LabelLike]]

#: Options each interaction mode accepts (beyond ``table``/``state``).
MODE_OPTIONS: dict[InteractionMode, frozenset[str]] = {
    InteractionMode.MANUAL: frozenset(),
    InteractionMode.MANUAL_WITH_PRUNING: frozenset(),
    InteractionMode.TOP_K: frozenset({"k"}),
    InteractionMode.GUIDED: frozenset({"strategy"}),
}

#: Default batch size of top-k sessions.
DEFAULT_K = 5


def parse_mode(mode: InteractionMode | str) -> InteractionMode:
    """Coerce a mode name to :class:`InteractionMode` (clear error on typos)."""
    if isinstance(mode, InteractionMode):
        return mode
    try:
        return InteractionMode(mode)
    except ValueError as exc:
        known = ", ".join(m.value for m in InteractionMode)
        raise ValueError(f"unknown interaction mode {mode!r}; known modes: {known}") from exc


def validate_mode_options(
    mode: InteractionMode | str, options: Mapping[str, object]
) -> InteractionMode:
    """Check that ``options`` only contains settings ``mode`` understands.

    Raises :class:`ValueError` naming the mode for unknown options (e.g.
    passing ``k`` to a guided session), and :class:`StrategyError` for values
    that are recognised but invalid (e.g. ``k < 1``).  Options set to ``None``
    count as "not given".
    """
    parsed = parse_mode(mode)
    allowed = MODE_OPTIONS[parsed]
    given = {name for name, value in options.items() if value is not None}
    unknown = sorted(given - allowed)
    if unknown:
        extras = ", ".join(repr(name) for name in unknown)
        accepted = ", ".join(sorted(allowed)) or "no options"
        raise ValueError(
            f"session mode {parsed.value!r} does not accept {extras} "
            f"(accepted: {accepted})"
        )
    k = options.get("k")
    if k is not None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise StrategyError(f"k must be a positive integer, got {k!r}")
    return parsed


class InferenceSession:
    """Sans-IO stepper for one interactive join-inference session.

    Parameters
    ----------
    table:
        The candidate table the membership questions are about.
    mode:
        One of the four :class:`~repro.service.protocol.InteractionMode`\\ s
        (default: guided).
    strategy:
        Tuple-choice strategy (guided mode only) — an instance, a registry
        name, or ``None`` for the default entropy lookahead.
    k:
        Batch size (top-k mode only).
    state:
        Continue from an existing :class:`~repro.core.state.InferenceState`
        instead of a fresh one.  The state object is driven as-is (its
        ``add_label`` / ``has_informative_tuple`` / … methods are called
        polymorphically) and is shared with the caller, not copied.
    strict:
        Whether contradicting labels raise (forwarded to a fresh state).

    Thread-safety: a session is a plain state machine with **no internal
    locking** — drive it from one thread (or one asyncio task) at a time.
    :class:`~repro.service.service.SessionService` adds the per-session lock
    for multi-threaded frontends;
    :class:`~repro.service.aio.AsyncSessionService` does the same for
    asyncio.  Raises :class:`ValueError` /
    :class:`~repro.exceptions.StrategyError` at construction for options the
    mode does not accept (see :func:`validate_mode_options`) and
    :class:`~repro.exceptions.StrategyError` for an unknown strategy name.
    """

    def __init__(
        self,
        table: CandidateTable,
        mode: InteractionMode | str = InteractionMode.GUIDED,
        strategy: Strategy | str | None = None,
        k: int | None = None,
        state: InferenceState | None = None,
        strict: bool = True,
    ) -> None:
        self.mode = validate_mode_options(mode, {"strategy": strategy, "k": k})
        self.table = table
        self.state = state if state is not None else InferenceState(table, strict=strict)
        self.trace = InferenceTrace()
        self.k = k if k is not None else DEFAULT_K
        if isinstance(strategy, str):
            self.strategy: Strategy = create_strategy(strategy)
        elif strategy is not None:
            self.strategy = strategy
        else:
            self.strategy = EntropyStrategy()
        # The entropy ranking used by top-k batches (independent of
        # ``strategy``, which is a guided-mode option).
        self._scorer = EntropyStrategy()
        self._pending: int | None = None
        self._choose_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #
    def is_converged(self) -> bool:
        """Whether the labels given so far identify a unique query."""
        return not self.state.has_informative_tuple()

    def _drop_stale_pending(self) -> None:
        """Forget the pending guided question if it can no longer teach us.

        A label submitted with an explicit tuple_id (batch answering a guided
        session, e.g. through the crowd dispatcher) may have labeled or
        grayed out the pending question; proposing or answering it would
        waste the question on a tuple whose label is already certain.
        """
        if self._pending is not None and self.state.status(self._pending).is_uninformative:
            self._pending = None
            self._choose_seconds = 0.0

    def _labels_in_state(self) -> int:
        """Total labels the session carries, including restored ones.

        Protocol event ``step``\\ s count from here so a session resumed from
        a saved document keeps numbering where it left off; the *trace* counts
        this sitting only (matching the engine's historical semantics).
        """
        return len(self.state.examples)

    def next_question(self) -> Event:
        """What the system asks next.

        Returns :class:`~repro.service.protocol.Converged` once the session
        has converged; otherwise a
        :class:`~repro.service.protocol.QuestionAsked` (guided mode — stable
        until answered, unless an out-of-band label made the pending tuple
        uninformative, in which case a fresh question is chosen) or a
        :class:`~repro.service.protocol.BatchQuestionsAsked` (top-k and
        manual modes).

        Raises :class:`~repro.exceptions.StrategyError` when the strategy
        cannot choose a tuple (the session is left unchanged).
        """
        if self.is_converged():
            return converged_event(self._labels_in_state(), self.state.inferred_query())
        step = self._labels_in_state() + 1
        if self.mode is InteractionMode.GUIDED:
            self._drop_stale_pending()
            if self._pending is None:
                started = time.perf_counter()
                self._pending = self.strategy.choose(self.state)
                self._choose_seconds = time.perf_counter() - started
            return QuestionAsked(
                step=step,
                tuple_id=self._pending,
                attributes=self.table.attribute_names,
                row=tuple(self.table.row(self._pending)),
            )
        if self.mode is InteractionMode.TOP_K:
            return BatchQuestionsAsked(
                step=step, tuple_ids=tuple(self.propose_batch()), k=self.k
            )
        return BatchQuestionsAsked(
            step=step, tuple_ids=tuple(self.labelable_ids()), k=None
        )

    def submit(
        self,
        label: LabelLike,
        tuple_id: int | None = None,
        oracle_seconds: float = 0.0,
    ) -> LabelApplied:
        """Apply one label and return the resulting event.

        Without ``tuple_id`` the label answers the pending guided question
        (choosing it first if :meth:`next_question` was not called).  With an
        explicit ``tuple_id`` — required in the batch and manual modes — the
        label applies to that tuple and a pending guided question, if any,
        stays pending (mirroring the historical session semantics).
        ``oracle_seconds`` is recorded as answer think-time in the trace.

        Raises :class:`~repro.exceptions.StrategyError` when a batch/manual
        session is answered without ``tuple_id`` — or when the pending
        guided question was resolved by out-of-band labels in the meantime
        (the answer would be misattributed; fetch a fresh question instead) —
        and :class:`~repro.exceptions.InconsistentLabelError` for a label
        :meth:`~repro.core.examples.Label.from_value` cannot parse or one
        that contradicts the labels before on a strict session (the state is
        unchanged in every error case).
        """
        answered_pending = tuple_id is None
        if tuple_id is None:
            if self.mode is not InteractionMode.GUIDED:
                raise StrategyError(
                    f"a {self.mode.value!r} session needs an explicit tuple_id to label"
                )
            stale = self._pending
            self._drop_stale_pending()
            if stale is not None and self._pending is None:
                # The caller is answering a question that other labels have
                # already resolved; applying their answer to a different,
                # freshly chosen tuple would misattribute it.
                raise StrategyError(
                    f"the pending question (tuple {stale}) was resolved by other labels; "
                    "call next_question() for a fresh question"
                )
            if self._pending is None:
                started = time.perf_counter()
                self._pending = self.strategy.choose(self.state)
                self._choose_seconds = time.perf_counter() - started
            tuple_id = self._pending
        parsed = Label.from_value(label)
        choose_seconds = self._choose_seconds if answered_pending else 0.0
        started = time.perf_counter()
        propagation = self.state.add_label(tuple_id, parsed)
        tuple_id = propagation.tuple_id  # a Python int, whatever integer came in
        elapsed = choose_seconds + (time.perf_counter() - started)
        if answered_pending:
            self._pending = None
            self._choose_seconds = 0.0
        self.trace.propagations.append(propagation)
        self.trace.interactions.append(
            Interaction(
                step=self.num_interactions + 1,
                tuple_id=tuple_id,
                label=parsed,
                pruned=propagation.pruned_count,
                informative_remaining=propagation.informative_after,
                elapsed_seconds=elapsed,
                oracle_seconds=oracle_seconds,
            )
        )
        return LabelApplied(
            step=self._labels_in_state(),
            tuple_id=tuple_id,
            label=parsed,
            pruned=propagation.pruned_count,
            informative_remaining=propagation.informative_after,
        )

    def submit_many(self, answers: AnswerSet) -> list[LabelApplied]:
        """Apply a batch of ``tuple_id -> label`` answers.

        Tuples that became uninformative through earlier labels of the same
        batch are skipped (the batch-labeling semantics of the top-k mode),
        as are tuples already labeled.

        Exceptions as for :meth:`submit`; on error, answers applied earlier
        in the batch stay applied, the failing answer and everything after
        it do not.  The events of those already-applied answers are attached
        to the raised exception as ``applied_events`` so a caller relaying
        events (e.g. to a stream) can still report them.
        """
        pairs = answers.items() if isinstance(answers, Mapping) else answers
        events: list[LabelApplied] = []
        for tuple_id, label in pairs:
            if self.state.status(tuple_id).is_uninformative:
                continue
            try:
                events.append(self.submit(label, tuple_id=tuple_id))
            except Exception as exc:
                exc.applied_events = tuple(events)
                raise
        return events

    # ------------------------------------------------------------------ #
    # Mode-specific views
    # ------------------------------------------------------------------ #
    def propose_batch(self, k: int | None = None) -> list[int]:
        """The current top-k informative tuples, best first (top-k mode).

        Returns fewer than ``k`` ids (possibly none) when fewer informative
        tuples remain; never raises.
        """
        batch_size = k if k is not None else self.k
        return ranked_informative_ids(self.state, self._scorer.score, batch_size)

    def labelable_ids(self) -> list[int]:
        """The tuples the user may label next (manual modes).

        Plain manual sessions offer every unlabeled tuple; with pruning
        (and in the system-driven modes) only the informative ones.
        """
        if self.mode is InteractionMode.MANUAL:
            labeled = self.state.labeled_ids()
            return [tid for tid in self.table.tuple_ids if tid not in labeled]
        return self.state.informative_ids()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    @property
    def num_interactions(self) -> int:
        """Number of labels applied so far."""
        return len(self.trace.interactions)

    @property
    def interactions(self) -> list[Interaction]:
        """The recorded interactions (shared with :attr:`trace`)."""
        return self.trace.interactions

    def inferred_query(self) -> JoinQuery:
        """The canonical query consistent with the labels given so far.

        Well-defined at any point of the session (before convergence it is
        the most-specific consistent query); never raises.
        """
        return self.state.inferred_query()

    def last_propagation(self) -> PropagationResult:
        """The propagation of the most recent label.

        Raises :class:`~repro.exceptions.StrategyError` when no label has
        been applied in this sitting.
        """
        if not self.trace.propagations:
            raise StrategyError("no label has been applied yet")
        return self.trace.propagations[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InferenceSession(mode={self.mode.value!r}, "
            f"labels={self.num_interactions}, converged={self.is_converged()})"
        )
