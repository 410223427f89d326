"""Lookahead strategies: weigh how much information each label would bring.

Where local strategies rely on fixed orders, lookahead strategies "take into
account the quantity of information that labeling an informative tuple could
bring to the inference process, by using a generalized notion of entropy"
(Section 2 of the paper).  All strategies below are built on the same
primitive, the prune counts of :meth:`InferenceState.prune_counts_all`: for
every informative tuple ``t``, how many informative tuples would be
*resolved* (labeled or grayed out) if the user answered ``+`` and if they
answered ``−``.  The strategies compute them per restricted equality type
(:meth:`InferenceState.informative_restricted_types`), against one
informative-type snapshot per step, and share scores between candidates of
the same restricted type.

Given those two counts ``(a, b)`` for every informative tuple the strategies
differ only in the score they maximise:

* :class:`ExpectedPruneStrategy` — the average ``(a + b) / 2``; greedy
  expected progress under a uniform prior over the answer.
* :class:`MinMaxPruneStrategy` — the pessimistic ``min(a, b)``; greedy
  worst-case progress (a one-step approximation of the optimal strategy).
* :class:`EntropyStrategy` — the "generalized entropy" score
  ``H(a / (a + b)) · (a + b)``: it prefers questions that are both *balanced*
  (either answer teaches something, like a binary-search probe) and
  *far-reaching* (many tuples resolved either way).
* :class:`KStepLookaheadStrategy` — recursive worst-case lookahead of bounded
  depth, interpolating between :class:`MinMaxPruneStrategy` (depth 1) and the
  exponential optimal strategy.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ...exceptions import StrategyError
from ..examples import Label
from ..kernels import score_levels
from ..state import InferenceState
from .base import Strategy


def binary_entropy(probability: float) -> float:
    """The binary entropy H(p) in bits, with H(0) = H(1) = 0."""
    if probability <= 0.0 or probability >= 1.0:
        return 0.0
    return -(
        probability * math.log2(probability)
        + (1.0 - probability) * math.log2(1.0 - probability)
    )


def ranked_informative_ids(
    state: InferenceState, value: Callable[[int, int], float], limit: int
) -> list[int]:
    """Up to ``limit`` informative tuple ids, by ``value`` of their prune counts.

    The order is (score descending, tuple id ascending), exactly as if every
    informative tuple were scored on its own.  Candidates sharing a
    restricted type share their score, so the restricted types are scored
    in one kernel call and the score levels are walked best first, each
    contributing the smallest unlabeled ids across its full types.
    """
    ranked: list[int] = []
    if limit < 1:
        return ranked
    groups = state.informative_restricted_types()
    counts = state.prune_counts_for_restricted(groups.restricted, columns=True)
    for level in score_levels(*counts, value):
        ranked += state.first_informative_ids(groups.members(level), limit - len(ranked))
        if len(ranked) >= limit:
            break
    return ranked


class _ScoredLookaheadStrategy(Strategy):
    """Common machinery: score every informative tuple from its prune counts.

    Scoring is type-level: candidates sharing a restricted equality type
    ``E(t) ∩ M`` share both prune counts, so the strategy scores the
    distinct restricted types — all of them in a single batched kernel call
    (:meth:`InferenceState.prune_counts_for_restricted`), and :meth:`score`
    once per distinct pair of counts — and only then resolves the winning
    types back to the smallest unlabeled tuple id.  The chosen tuple is
    identical to scoring every candidate individually: the score maximum
    over candidates equals the maximum over their types, and the old
    smallest-id tie-break is exactly the smallest id across all types
    achieving that maximum.
    """

    def score(self, resolved_if_positive: int, resolved_if_negative: int) -> float:
        """The figure of merit to maximise; subclasses override this."""
        raise NotImplementedError

    def choose(self, state: InferenceState) -> int:
        """The informative tuple with the best score (ties: smallest id)."""
        self._require_informative(state)
        groups = state.informative_restricted_types()
        counts = state.prune_counts_for_restricted(groups.restricted, columns=True)
        best = next(score_levels(*counts, self.score))
        chosen = state.first_informative_id(groups.members(best))
        assert chosen is not None  # informative types always hold an unlabeled tuple
        return chosen


class ExpectedPruneStrategy(_ScoredLookaheadStrategy):
    """Maximises the expected number of resolved tuples (uniform answer prior)."""

    name = "lookahead-expected"

    def score(self, resolved_if_positive: int, resolved_if_negative: int) -> float:
        """Average of the two prune counts."""
        return (resolved_if_positive + resolved_if_negative) / 2.0


class MinMaxPruneStrategy(_ScoredLookaheadStrategy):
    """Maximises the guaranteed (worst-case) number of resolved tuples."""

    name = "lookahead-minmax"

    def score(self, resolved_if_positive: int, resolved_if_negative: int) -> float:
        """The smaller of the two prune counts."""
        return float(min(resolved_if_positive, resolved_if_negative))


class EntropyStrategy(_ScoredLookaheadStrategy):
    """Maximises a generalised-entropy score: balance × magnitude.

    ``H(a/(a+b)) · (a+b)`` is maximal for questions whose two possible answers
    resolve many tuples *and* split the remaining uncertainty evenly; it
    degenerates gracefully to zero for questions whose answer is lopsided.
    A small additive term keeps a total order when all splits are completely
    unbalanced (entropy 0), falling back to expected pruning.
    """

    name = "lookahead-entropy"

    def score(self, resolved_if_positive: int, resolved_if_negative: int) -> float:
        """Entropy-weighted magnitude of the split, with an expected-prune tie-break."""
        total = resolved_if_positive + resolved_if_negative
        if total == 0:
            return 0.0
        balance = binary_entropy(resolved_if_positive / total)
        expected = total / 2.0
        return balance * total + 1e-6 * expected


class KStepLookaheadStrategy(Strategy):
    """Bounded-depth worst-case lookahead.

    Depth 1 coincides with :class:`MinMaxPruneStrategy`; larger depths
    simulate both answers recursively and minimise the worst-case number of
    *remaining informative tuples* after ``depth`` questions.  The cost grows
    exponentially with the depth, so the strategy restricts itself to the
    ``beam_width`` most promising candidates (ranked by the depth-1 score) at
    every level.
    """

    name = "lookahead-kstep"

    def __init__(self, depth: int = 2, beam_width: int = 8) -> None:
        if depth < 1:
            raise StrategyError("lookahead depth must be at least 1")
        if beam_width < 1:
            raise StrategyError("beam width must be at least 1")
        self.depth = depth
        self.beam_width = beam_width

    def _beam(self, state: InferenceState) -> list[int]:
        """The most promising informative tuples according to the one-step score.

        Ranked by ``min(a, b)`` descending, then by tuple id, through the
        same type-level walk as top-k ranking (:func:`ranked_informative_ids`).
        """
        return ranked_informative_ids(state, min, self.beam_width)

    def _worst_case_remaining(self, state: InferenceState, tuple_id: int, depth: int) -> int:
        """Worst-case number of informative tuples left after asking about ``tuple_id``.

        The simulated outcome threads the parent's type table through the
        recursion (``simulate_label`` clones it copy-on-write), so the
        remaining-informative count and the next beam are table reads — the
        candidate statuses are never re-derived from scratch per depth.
        """
        worst = 0
        for label in (Label.POSITIVE, Label.NEGATIVE):
            outcome = state.simulate_label(tuple_id, label)
            remaining = outcome.informative_count()
            if depth <= 1 or not remaining:
                value = remaining
            else:
                value = min(
                    self._worst_case_remaining(outcome, next_id, depth - 1)
                    for next_id in self._beam(outcome)
                )
            worst = max(worst, value)
        return worst

    def choose(self, state: InferenceState) -> int:
        """The candidate minimising the worst-case remaining uncertainty."""
        self._require_informative(state)
        beam = self._beam(state)
        return min(
            beam,
            key=lambda tid: (self._worst_case_remaining(state, tid, self.depth), tid),
        )
