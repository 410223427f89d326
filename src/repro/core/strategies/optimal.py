"""The optimal strategy: exact minimax over whole question trees.

The paper notes that "there exists an algorithm that computes the optimal
strategy of showing tuples to the user, but it requires exponential time,
which unfortunately renders it unusable in practice".  This module implements
that algorithm anyway — it is invaluable for validating the heuristics on
small instances (the efficient strategies can be compared against the true
optimum) and for the ablation experiments.

The value of a state is the smallest number of membership queries that
suffices to reach convergence *whatever the user answers* (the user is
adversarial but consistent).  It satisfies

    ``value(state) = 0``                                  if converged,
    ``value(state) = 1 + min_t max_label value(state+label)``  otherwise,

with ``t`` ranging over informative tuples (one representative per distinct
restricted equality type — tuples of the same type are interchangeable).
States are memoised on the pair ``(M, set of negative types)``, which fully
determines informativeness.
"""

from __future__ import annotations

from ...exceptions import StrategyError
from ..examples import Label
from ..state import InferenceState
from .base import Strategy


class OptimalStrategy(Strategy):
    """Chooses the first question of an optimal (minimax) question tree.

    ``max_states`` bounds the number of distinct memoised states; exceeding it
    raises :class:`~repro.exceptions.StrategyError` so that callers are never
    silently stuck in an exponential computation.
    """

    name = "optimal"

    def __init__(self, max_states: int = 200_000) -> None:
        if max_states < 1:
            raise StrategyError("max_states must be positive")
        self.max_states = max_states
        self._memo: dict[tuple[int, frozenset[int]], int] = {}

    def reset(self) -> None:
        """Drop the memoisation table."""
        self._memo = {}

    # ------------------------------------------------------------------ #
    # Core minimax
    # ------------------------------------------------------------------ #
    def _state_key(self, state: InferenceState) -> tuple[int, frozenset[int]]:
        positive_mask = state.space.positive_mask
        negatives = frozenset(mask & positive_mask for mask in state.space.negative_masks)
        return positive_mask, negatives

    def _representatives(self, state: InferenceState) -> list[int]:
        """One informative tuple per distinct restricted equality type.

        Reads the grouped informative snapshot instead of materialising every
        informative tuple id; the representative of a restricted type is its
        smallest unlabeled tuple id, as before.
        """
        representatives: list[int] = []
        groups = state.informative_restricted_types()
        for group in range(len(groups)):
            tuple_id = state.first_informative_id(groups.members([group]))
            if tuple_id is not None:
                representatives.append(tuple_id)
        return sorted(representatives)

    def value(self, state: InferenceState) -> int:
        """Minimum worst-case number of questions to convergence from ``state``."""
        if state.is_converged():
            return 0
        key = self._state_key(state)
        if key in self._memo:
            return self._memo[key]
        if len(self._memo) >= self.max_states:
            raise StrategyError(
                "optimal strategy exceeded its state budget "
                f"({self.max_states} memoised states); the instance is too large"
            )
        best = None
        for tuple_id in self._representatives(state):
            worst = 0
            for label in (Label.POSITIVE, Label.NEGATIVE):
                outcome = state.simulate_label(tuple_id, label)
                worst = max(worst, self.value(outcome))
                if best is not None and worst + 1 >= best:
                    break  # cannot improve on the best question found so far
            candidate_value = 1 + worst
            if best is None or candidate_value < best:
                best = candidate_value
        assert best is not None  # non-converged states have informative tuples
        self._memo[key] = best
        return best

    def choose(self, state: InferenceState) -> int:
        """An informative tuple starting an optimal question tree."""
        candidates = self._informative_or_raise(state)
        best_id: int | None = None
        best_value: int | None = None
        for tuple_id in self._representatives(state):
            worst = 0
            for label in (Label.POSITIVE, Label.NEGATIVE):
                outcome = state.simulate_label(tuple_id, label)
                worst = max(worst, self.value(outcome))
            if best_value is None or worst < best_value or (worst == best_value and tuple_id < best_id):
                best_value = worst
                best_id = tuple_id
        assert best_id is not None
        # Any informative tuple of the chosen representative's type is equivalent;
        # return the representative itself (smallest id of its type among candidates).
        return best_id if best_id in candidates else candidates[0]
