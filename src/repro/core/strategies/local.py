"""Local strategies: cheap choices based on fixed orders over the tuples.

The paper describes local strategies as "rather simple and based on some fixed
orders" — they look only at intrinsic properties of each informative tuple
(its equality type relative to the current candidate query ``M``) and never
simulate the effect of a label.  They are therefore very fast and, as the
paper's demo scenario points out, competitive on simple instances and queries.

The family implemented here:

* :class:`LocalMostSpecificStrategy` — prefer the tuple sharing the *most*
  atoms with ``M``: its positive label would barely shrink ``M`` but its
  negative label is extremely informative (it rules out ``M``'s large
  neighbourhood); this walks the specialisation lattice top-down.
* :class:`LocalMostGeneralStrategy` — prefer the tuple sharing the *fewest*
  atoms with ``M``: walks the lattice bottom-up.
* :class:`LexicographicStrategy` — the first informative tuple in table
  order; the weakest sensible fixed order, useful as a deterministic control.
* :class:`LargestTypeStrategy` — prefer the tuple whose equality type (within
  ``M``) is shared by the most still-informative tuples, so whatever the
  answer, many tuples of the same type are resolved at once.
"""

from __future__ import annotations

from ..atoms import popcount
from ..state import InferenceState
from .base import Strategy


class LexicographicStrategy(Strategy):
    """Always asks about the first informative tuple in table order."""

    name = "local-lexicographic"

    def choose(self, state: InferenceState) -> int:
        """The informative tuple with the smallest id.

        The minimum over all informative tuples is the minimum over the
        informative types' smallest unlabeled ids — no candidate-id
        materialisation.
        """
        self._require_informative(state)
        chosen = state.first_informative_id(
            mask for mask, _ in state.informative_type_snapshot()
        )
        assert chosen is not None  # the guard above ensures an informative type
        return chosen


class LocalMostSpecificStrategy(Strategy):
    """Prefers tuples agreeing with as many atoms of the candidate query as possible.

    Ties are broken by smallest tuple id, making the strategy deterministic.
    """

    name = "local-most-specific"

    def choose(self, state: InferenceState) -> int:
        """The informative tuple maximising ``|E(t) ∩ M|``.

        Scored per informative type (the popcount only depends on the type);
        the old smallest-id tie-break is the smallest unlabeled id across all
        types achieving the maximal popcount.
        """
        self._require_informative(state)
        positive_mask = state.space.positive_mask
        best_pop = -1
        best_types: list[int] = []
        for mask, _ in state.informative_type_snapshot():
            pop = popcount(mask & positive_mask)
            if pop > best_pop:
                best_pop = pop
                best_types = [mask]
            elif pop == best_pop:
                best_types.append(mask)
        chosen = state.first_informative_id(best_types)
        assert chosen is not None
        return chosen


class LocalMostGeneralStrategy(Strategy):
    """Prefers tuples agreeing with as few atoms of the candidate query as possible.

    Ties are broken by smallest tuple id, making the strategy deterministic.
    """

    name = "local-most-general"

    def choose(self, state: InferenceState) -> int:
        """The informative tuple minimising ``|E(t) ∩ M|``.

        Mirror image of :class:`LocalMostSpecificStrategy`: minimal popcount
        over the informative types, then the smallest unlabeled id among the
        minimising types.
        """
        self._require_informative(state)
        positive_mask = state.space.positive_mask
        best_pop: int | None = None
        best_types: list[int] = []
        for mask, _ in state.informative_type_snapshot():
            pop = popcount(mask & positive_mask)
            if best_pop is None or pop < best_pop:
                best_pop = pop
                best_types = [mask]
            elif pop == best_pop:
                best_types.append(mask)
        chosen = state.first_informative_id(best_types)
        assert chosen is not None
        return chosen


class LargestTypeStrategy(Strategy):
    """Prefers the tuple whose (restricted) equality type is the most frequent.

    Whatever the user answers, every still-informative tuple sharing the same
    restricted type ``E(t) ∩ M`` is resolved along with it, so frequent types
    give a guaranteed batch of pruning without simulating labels.
    """

    name = "local-largest-type"

    def choose(self, state: InferenceState) -> int:
        """The informative tuple whose restricted type has the most members.

        The grouped snapshot pools two full types with the same restriction
        under ``M``, exactly as before; the winner is the smallest unlabeled
        id among the full types of the most frequent restricted type(s).
        """
        self._require_informative(state)
        groups = state.informative_restricted_types()
        totals = groups.totals()
        best = max(totals)
        chosen = state.first_informative_id(
            groups.members([group for group, total in enumerate(totals) if total == best])
        )
        assert chosen is not None
        return chosen
