"""The space of join queries consistent with the examples.

Given positive examples ``P`` and negative examples ``N`` over a candidate
table, a query θ is *consistent* when it selects every positive and no
negative example.  With ``M = ⋂_{p∈P} E(p)`` (``M = Ω`` when ``P`` is empty)
the consistent queries are exactly

    ``C = { θ ⊆ M  :  ∀ n ∈ N, θ ⊄ E(n) }``

The class below maintains ``M`` and the negative equality types and answers
the three questions the interactive scenario needs after every label:

* is the example set still consistent? (``∀n: M ⊄ E(n)``)
* does *some* consistent query select a given tuple ``t``?
  (``∀n: M ∩ E(t) ⊄ E(n)``)
* does *some* consistent query reject ``t``? (``M ⊄ E(t)``)

All checks are O(|N|) bitmask operations.  The canonical consistent query is
``M`` itself — the most specific one — and it is what JIM returns once every
remaining consistent query is instance-equivalent to it.

**Delta updates.**  Because one label only ever touches the representation in
one of two ways — a positive example ANDs its equality type into ``M``, a
negative example appends its equality type to the negative list — the space
never needs to be rebuilt from the full example set after a label.
:meth:`ConsistentQuerySpace.with_label` applies exactly that delta in
O(|N|) instead of re-scanning every example, which is what makes the
interactive loop's per-step cost independent of the number of labels already
given (see :mod:`repro.core.state` for the companion per-type table).
"""

from __future__ import annotations

from collections.abc import Iterator

from .atoms import AtomUniverse, is_subset
from .equality_types import EqualityTypeIndex
from .examples import ExampleSet
from .queries import JoinQuery


class ConsistentQuerySpace:
    """The set of join queries consistent with an example set.

    The space is represented implicitly by the pair ``(M, {E(n)}_{n∈N})``;
    explicit enumeration (:meth:`consistent_query_masks`) is only used by the
    optimal strategy and by tests, on small universes.
    """

    def __init__(self, type_index: EqualityTypeIndex, examples: ExampleSet | None = None) -> None:
        self.type_index = type_index
        self.universe: AtomUniverse = type_index.universe
        self.examples = examples if examples is not None else ExampleSet()
        self._positive_mask = self.universe.full_mask
        self._negative_masks: list[int] = []
        for example in self.examples:
            mask = type_index.mask(example.tuple_id)
            if example.label.is_positive:
                self._positive_mask &= mask
            else:
                self._negative_masks.append(mask)

    # ------------------------------------------------------------------ #
    # The implicit representation
    # ------------------------------------------------------------------ #
    @property
    def positive_mask(self) -> int:
        """``M`` — the intersection of the positive examples' equality types."""
        return self._positive_mask

    @property
    def negative_masks(self) -> tuple[int, ...]:
        """The equality types of the negative examples."""
        return tuple(self._negative_masks)

    def canonical_query(self) -> JoinQuery:
        """The most specific consistent query (``M`` decoded into atoms)."""
        return JoinQuery.from_mask(self.universe, self._positive_mask)

    # ------------------------------------------------------------------ #
    # Membership / existence tests
    # ------------------------------------------------------------------ #
    def is_consistent(self) -> bool:
        """Whether at least one query is consistent with the examples."""
        return all(not is_subset(self._positive_mask, neg) for neg in self._negative_masks)

    def admits(self, query: JoinQuery) -> bool:
        """Whether ``query`` is consistent with the examples."""
        return self.admits_mask(query.mask(self.universe))

    def admits_mask(self, query_mask: int) -> bool:
        """Whether the query encoded by ``query_mask`` is consistent."""
        if not is_subset(query_mask, self._positive_mask):
            return False
        return all(not is_subset(query_mask, neg) for neg in self._negative_masks)

    def exists_selecting(self, type_mask: int) -> bool:
        """Whether some consistent query selects a tuple of equality type ``type_mask``.

        A consistent query selecting such a tuple must be a subset of
        ``M ∩ E(t)``; since smaller queries select at least as much, it exists
        exactly when ``M ∩ E(t)`` itself avoids every negative type.
        """
        restricted = self._positive_mask & type_mask
        return all(not is_subset(restricted, neg) for neg in self._negative_masks)

    def exists_rejecting(self, type_mask: int) -> bool:
        """Whether some consistent query rejects a tuple of equality type ``type_mask``.

        ``M`` is the most restrictive consistent query, so a rejecting one
        exists exactly when ``M`` itself is not included in ``E(t)``.
        """
        return not is_subset(self._positive_mask, type_mask)

    def certain_label_for(self, type_mask: int) -> bool | None:
        """The implied label of a tuple with the given type, if any.

        Returns ``True`` when every consistent query selects it, ``False``
        when none does, and ``None`` when consistent queries disagree (the
        tuple is informative).
        """
        if not self.exists_rejecting(type_mask):
            return True
        if not self.exists_selecting(type_mask):
            return False
        return None

    # ------------------------------------------------------------------ #
    # Updates (functional: each returns a new space)
    # ------------------------------------------------------------------ #
    def with_label(self, tuple_id: int, positive: bool) -> ConsistentQuerySpace:
        """A new space with one extra example (the example set is copied).

        The update is a *delta*: the new space reuses the current ``M`` and
        negative types and folds in only the new example's equality type —
        O(|N|) instead of re-scanning the whole example set.
        """
        from .examples import Label

        already_labeled = self.examples.label_of(tuple_id) is not None
        updated = self.examples.copy()
        updated.add(tuple_id, Label.POSITIVE if positive else Label.NEGATIVE)
        return self._delta(updated, tuple_id, positive, already_labeled)

    def _delta(
        self,
        examples: ExampleSet,
        tuple_id: int,
        positive: bool,
        already_labeled: bool,
    ) -> ConsistentQuerySpace:
        """The space for ``examples`` = this space's examples + one label.

        ``examples`` must extend this space's example set by exactly the
        ``(tuple_id, positive)`` label (``already_labeled`` flags the no-op
        relabeling case, where the representation is unchanged).  Used by
        :meth:`with_label` and by :class:`~repro.core.state.InferenceState`,
        which shares its live example set with the space it holds.
        """
        clone = ConsistentQuerySpace.__new__(ConsistentQuerySpace)
        clone.type_index = self.type_index
        clone.universe = self.universe
        clone.examples = examples
        mask = self.type_index.mask(tuple_id)
        if positive:
            clone._positive_mask = self._positive_mask & mask
            clone._negative_masks = list(self._negative_masks)
        else:
            clone._positive_mask = self._positive_mask
            clone._negative_masks = list(self._negative_masks)
            if not already_labeled:
                clone._negative_masks.append(mask)
        return clone

    def _clone_with_examples(self, examples: ExampleSet) -> ConsistentQuerySpace:
        """A copy of this space bound to ``examples`` (which must be equal).

        Copy-on-write support for :meth:`InferenceState.copy`: the masks are
        reused verbatim instead of being rebuilt from the example set.
        """
        clone = ConsistentQuerySpace.__new__(ConsistentQuerySpace)
        clone.type_index = self.type_index
        clone.universe = self.universe
        clone.examples = examples
        clone._positive_mask = self._positive_mask
        clone._negative_masks = list(self._negative_masks)
        return clone

    # ------------------------------------------------------------------ #
    # Explicit enumeration (small universes only)
    # ------------------------------------------------------------------ #
    def consistent_query_masks(self, limit: int | None = None) -> Iterator[int]:
        """Enumerate the bitmasks of consistent queries (subsets of ``M``).

        The number of subsets of ``M`` is ``2^{|M|}``; callers must only use
        this on small universes (the optimal strategy and the test-suite do).
        ``limit`` bounds the number of yielded masks.
        """
        atoms_in_m = [pos for pos in range(self.universe.size) if self._positive_mask >> pos & 1]
        yielded = 0
        for subset_id in range(1 << len(atoms_in_m)):
            mask = 0
            for bit, pos in enumerate(atoms_in_m):
                if subset_id >> bit & 1:
                    mask |= 1 << pos
            if self.admits_mask(mask):
                yield mask
                yielded += 1
                if limit is not None and yielded >= limit:
                    return

    def count_consistent_queries(self, limit: int | None = None) -> int:
        """Number of consistent queries (possibly truncated by ``limit``)."""
        return sum(1 for _ in self.consistent_query_masks(limit))

    def consistent_queries(self, limit: int | None = None) -> list[JoinQuery]:
        """The consistent queries as :class:`JoinQuery` objects (small universes)."""
        return [
            JoinQuery.from_mask(self.universe, mask)
            for mask in self.consistent_query_masks(limit)
        ]

    def all_consistent_agree_everywhere(self) -> bool:
        """Whether every consistent query selects exactly the same tuples.

        This is the instance-equivalence convergence criterion, checked
        without enumerating queries: consistent queries all agree on the
        instance iff no tuple is informative.
        """
        return all(
            self.certain_label_for(mask) is not None for mask in self.type_index.distinct_masks
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ConsistentQuerySpace(M={self.universe.describe_mask(self._positive_mask)!r}, "
            f"negatives={len(self._negative_masks)})"
        )
