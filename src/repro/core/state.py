"""The mutable state of one interactive inference run.

:class:`InferenceState` ties together the candidate table, the atom universe,
the per-tuple equality types, the examples given so far and the consistent
query space, and exposes the operations the interactive scenario of the paper
(Figure 2) is built from:

* ``add_label`` — answer one membership query and propagate it (gray out the
  tuples that became uninformative);
* ``informative_ids`` / ``status`` — which tuples are still worth asking about;
* ``is_converged`` / ``inferred_query`` — detect that a unique query (up to
  instance-equivalence) remains and return it;
* ``prune_counts`` / ``prune_counts_all`` / ``simulate_label`` — the "what
  would this label give us?" primitives on which the lookahead strategies are
  built.

**Incremental propagation.**  The state never rebuilds its machinery from the
full example set.  One label is applied as a *delta*:

1. the consistent space folds the new example's equality type into ``(M, N)``
   (:meth:`ConsistentQuerySpace._delta`, O(|N|));
2. the state's :class:`~repro.core.kernels.TypeTable` — its per-type
   certain labels and unlabeled counts, over the shared index's arrays —
   re-evaluates only the currently informative equality types (certain
   types can never revert while the examples stay consistent) and reports
   which types flipped;
3. the :class:`~repro.core.propagation.PropagationResult` is assembled from
   the flipped types alone — no before/after full-table classification, and
   its grayed-out ids are only listed when a caller reads them.

``statuses()``, ``informative_ids()`` and ``has_informative_tuple()`` read the
type table instead of sweeping the candidate table, ``prune_counts_all``
scores a whole candidate set against one shared informative-type snapshot
(deduplicated by restricted equality type), and :meth:`copy` clones the type
table in O(1) and the space in O(|N|), so lookahead simulation
(``simulate_label``) is copy-on-write instead of rebuild-from-scratch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from numbers import Integral

from ..exceptions import InconsistentLabelError
from ..relational.candidate import CandidateTable
from . import kernels
from .atoms import AtomScope, AtomUniverse
from .equality_types import EqualityTypeIndex
from .examples import ExampleSet, Label
from .informativeness import TupleStatus, unlabeled_ids_of_types
from .kernels import TypeGroups, TypeTable
from .propagation import PropagationResult, delta_result
from .queries import JoinQuery
from .space import ConsistentQuerySpace


class InferenceState:
    """All the information JIM maintains during one inference session.

    The table-level structures are shared: without an explicit
    ``universe`` the state takes the table's default universe of ``scope``
    (:meth:`~repro.core.atoms.AtomUniverse.shared`), and its
    :attr:`type_index` is the table's index for that atom set
    (:meth:`~repro.core.equality_types.EqualityTypeIndex.shared`), built by
    the first state over the table and reused by every later one.
    :attr:`universe` is the index's universe, so a state, its space and
    every other state over the same atoms hold one universe object.  Only
    the examples, the consistent space and the :attr:`type_table` are per
    state, and the type table runs on the index's per-type arrays, copying
    its ``unlabeled`` column only on the first label.
    """

    def __init__(
        self,
        table: CandidateTable,
        universe: AtomUniverse | None = None,
        scope: AtomScope = AtomScope.CROSS_RELATION,
        examples: ExampleSet | None = None,
        strict: bool = True,
    ) -> None:
        self.table = table
        if universe is None:
            universe = AtomUniverse.shared(table, scope=scope)
        self.type_index = EqualityTypeIndex.shared(universe)
        self.universe = self.type_index.universe
        self.examples = examples.copy() if examples is not None else ExampleSet()
        self.strict = strict
        self.space = ConsistentQuerySpace(self.type_index, self.examples)
        type_index = self.type_index
        self.type_table = TypeTable(type_index.mask_array, type_index.size_array, type_index.code_of)
        self.type_table.refresh_certain(self.space.positive_mask, self.space.negative_masks)
        for tuple_id in self.examples.labeled_ids:
            self.type_table.decrement_unlabeled(type_index.mask(tuple_id))

    def _checked_id(self, tuple_id: int) -> int:
        """``tuple_id`` as an ``int``, if it names a candidate tuple.

        Python and numpy integers in range pass; a ``bool``, a non-integer
        or an out-of-range id raises
        :class:`~repro.exceptions.InconsistentLabelError`.
        """
        if isinstance(tuple_id, Integral) and not isinstance(tuple_id, bool):
            tuple_id = int(tuple_id)
            if 0 <= tuple_id < len(self.type_index):
                return tuple_id
        raise InconsistentLabelError(f"unknown tuple id {tuple_id!r}")

    # ------------------------------------------------------------------ #
    # Labeling
    # ------------------------------------------------------------------ #
    def add_label(self, tuple_id: int, label: Label | str | bool) -> PropagationResult:
        """Record a membership-query answer and propagate it incrementally.

        Returns a :class:`~repro.core.propagation.PropagationResult` listing
        the tuples grayed out by the new label.  In strict mode (the default)
        a label that contradicts the current examples — e.g. labeling a
        certain-positive tuple as negative — raises
        :class:`~repro.exceptions.InconsistentLabelError` and leaves the state
        unchanged.

        The label is applied as a delta to the space and the type table (see
        the module docstring); the cost is O(#informative types × |N|)
        instead of a full rebuild plus two table sweeps.  An id that names
        no candidate tuple raises
        :class:`~repro.exceptions.InconsistentLabelError` too.
        """
        parsed = Label.from_value(label)
        tuple_id = self._checked_id(tuple_id)
        status_before = self.status(tuple_id)
        if self.strict and status_before.implied_label not in (None, parsed):
            raise InconsistentLabelError(
                f"tuple {tuple_id} is {status_before.value}; labeling it {parsed.value!r} "
                "would contradict the labels given so far"
            )
        informative_before = self.type_table.informative_count()
        already_labeled = self.examples.label_of(tuple_id) is not None
        self.examples.add(tuple_id, parsed)
        self.space = self.space._delta(self.examples, tuple_id, parsed.is_positive, already_labeled)
        consistent = self.space.is_consistent()
        if self.strict and not consistent:  # pragma: no cover - defensive; the guard above prevents it
            raise InconsistentLabelError(
                f"labeling tuple {tuple_id} as {parsed.value!r} leaves no consistent join query"
            )
        if not already_labeled:
            self.type_table.decrement_unlabeled(self.type_index.mask(tuple_id))
        flipped_positive, flipped_negative = self.type_table.refresh_certain(
            self.space.positive_mask, self.space.negative_masks, only_unknown=consistent
        )
        return delta_result(
            self.type_index,
            self.examples.labeled_ids,
            tuple_id,
            parsed,
            flipped_positive,
            flipped_negative,
            informative_before=informative_before,
            informative_after=self.type_table.informative_count(),
            consistent=consistent,
        )

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def status(self, tuple_id: int) -> TupleStatus:
        """The status of one tuple under the current examples (O(1), cached).

        Raises :class:`~repro.exceptions.InconsistentLabelError` for an id
        that names no candidate tuple.
        """
        tuple_id = self._checked_id(tuple_id)
        label = self.examples.label_of(tuple_id)
        if label is Label.POSITIVE:
            return TupleStatus.LABELED_POSITIVE
        if label is Label.NEGATIVE:
            return TupleStatus.LABELED_NEGATIVE
        certain = self.type_table.certain_of(self.type_index.mask(tuple_id))
        if certain is True:
            return TupleStatus.CERTAIN_POSITIVE
        if certain is False:
            return TupleStatus.CERTAIN_NEGATIVE
        return TupleStatus.INFORMATIVE

    def statuses(self) -> dict[int, TupleStatus]:
        """The status of every tuple under the current examples.

        Reads the type table, so the cost is O(#tuples) with no subset
        checks.
        """
        return {tuple_id: self.status(tuple_id) for tuple_id in range(len(self.type_index))}

    def informative_ids(self) -> list[int]:
        """Ids of the tuples still worth asking about, in id order."""
        return unlabeled_ids_of_types(
            self.type_index,
            self.type_table.informative_arrays()[0].tolist(),
            self.examples.labeled_ids,
        )

    def certain_ids(self) -> list[int]:
        """Ids of unlabeled tuples whose label is implied (grayed out)."""
        return unlabeled_ids_of_types(
            self.type_index,
            (
                mask
                for mask in self.type_index.distinct_masks
                if self.type_table.certain_of(mask) is not None
            ),
            self.examples.labeled_ids,
        )

    def labeled_ids(self) -> frozenset[int]:
        """Ids of explicitly labeled tuples."""
        return self.examples.labeled_ids

    def informative_count(self) -> int:
        """Number of informative tuples (one type-table read, no table sweep)."""
        return self.type_table.informative_count()

    def has_informative_tuple(self) -> bool:
        """Whether the interactive loop should keep asking questions.

        Reads the type table; :func:`repro.core.informativeness.has_informative_tuple`
        answers the same question from scratch.
        """
        return self.type_table.has_informative()

    def is_converged(self) -> bool:
        """Whether all consistent queries are instance-equivalent (inference done)."""
        return not self.has_informative_tuple()

    def is_consistent(self) -> bool:
        """Whether at least one join query is consistent with the examples."""
        return self.space.is_consistent()

    def inferred_query(self) -> JoinQuery:
        """The canonical inferred query (most specific consistent query ``M``).

        Meaningful once :meth:`is_converged` is true; before convergence it is
        simply the most specific query consistent with the labels so far.
        """
        return self.space.canonical_query()

    # ------------------------------------------------------------------ #
    # Lookahead primitives
    # ------------------------------------------------------------------ #
    def informative_type_snapshot(self) -> list[tuple[int, int]]:
        """``(type_mask, unlabeled_count)`` per informative type, this step.

        The snapshot every lookahead score is computed against; taking it is
        O(#informative types) thanks to the type table.
        """
        return self.type_table.informative_items()

    def informative_restricted_types(self) -> TypeGroups:
        """Informative types grouped by restricted type ``E(t) ∩ M``.

        Every lookahead/local quantity of a candidate tuple depends on its
        type only through the restriction under ``M``, so the groups'
        ``restricted`` types are the candidate set the type-level strategies
        score — typically orders of magnitude smaller than the informative
        tuple set.  The grouping runs on the type table's snapshot (one
        ``unique`` over ``masks & M``), the same snapshot the lookahead
        kernel of this step scores against.
        """
        masks, counts = self.type_table.informative_arrays()
        return TypeGroups(masks, counts, self.space.positive_mask)

    def prune_counts_for_restricted(
        self, restricted_masks: Sequence[int], columns: bool = False
    ):
        """Prune counts per restricted candidate type, in one kernel call.

        The counts only depend on a candidate through ``E(t) ∩ M``: a
        positive label shrinks ``M`` to ``M ∩ E(t)``, a negative label adds
        ``E(t)`` to the negative types, and every subset test happens under
        ``M``.  All candidates are scored against one shared informative
        snapshot, the type table's.  Returns one ``(a, b)`` pair per
        candidate, or with ``columns`` the two count columns that
        :func:`~repro.core.kernels.score_levels` ranks.
        """
        return kernels.prune_counts_batch(
            *self.type_table.informative_arrays(),
            restricted_masks,
            self.space.positive_mask,
            self.space.negative_masks,
            columns=columns,
        )

    def first_informative_id(self, type_masks: Iterable[int]) -> int | None:
        """The smallest unlabeled tuple id across the given equality types.

        Uses the index's :meth:`~repro.core.equality_types.EqualityTypeIndex.min_tuple_id`
        fast path (no per-type id materialisation on factorized tables) and
        only falls back to scanning a type's id list when its minimum happens
        to be labeled.
        """
        labeled = self.examples.labeled_ids
        type_index = self.type_index
        best: int | None = None
        for mask in type_masks:
            tuple_id = type_index.min_tuple_id(mask)
            if tuple_id is not None and tuple_id in labeled:
                tuple_id = next(
                    (t for t in type_index.tuples_with_mask(mask) if t not in labeled),
                    None,
                )
            if tuple_id is not None and (best is None or tuple_id < best):
                best = tuple_id
        return best

    def first_informative_ids(self, type_masks: Iterable[int], limit: int) -> list[int]:
        """Up to ``limit`` smallest unlabeled ids across the given types."""
        labeled = self.examples.labeled_ids
        collected: list[int] = []
        for mask in type_masks:
            taken = 0
            for tuple_id in self.type_index.tuples_with_mask(mask):
                if tuple_id in labeled:
                    continue
                collected.append(tuple_id)
                taken += 1
                if taken >= limit:
                    break
        collected.sort()
        return collected[:limit]

    def prune_counts(self, tuple_id: int) -> tuple[int, int]:
        """How many informative tuples each label of ``tuple_id`` would resolve.

        Returns ``(resolved_if_positive, resolved_if_negative)`` where
        *resolved* counts informative tuples (including ``tuple_id`` itself)
        that would stop being informative.  This is the quantity the paper's
        question "labeling which tuple allows us to prune as many tuples as
        possible?" refers to, and the building block of lookahead strategies.

        Scoring many candidates?  Use :meth:`prune_counts_all`, which shares
        one informative-type snapshot across the whole candidate set.
        """
        restricted = self.type_index.mask(tuple_id) & self.space.positive_mask
        return self.prune_counts_for_restricted([restricted])[0]

    def prune_counts_all(
        self, tuple_ids: Iterable[int] | None = None
    ) -> dict[int, tuple[int, int]]:
        """:meth:`prune_counts` for every candidate, against one shared snapshot.

        Candidates sharing a restricted equality type ``E(t) ∩ M`` share one
        score and the distinct restricted types are scored in a single
        batched kernel call, so scoring a whole candidate set costs one
        O(#distinct candidate types × #informative types × |N|) kernel
        evaluation plus O(#candidates) bookkeeping.  ``tuple_ids`` defaults
        to the informative tuples.
        """
        candidates = list(tuple_ids) if tuple_ids is not None else self.informative_ids()
        positive_mask = self.space.positive_mask
        mask_of = self.type_index.mask
        restricted_of: dict[int, int] = {}
        distinct: list[int] = []
        seen: set[int] = set()
        for tuple_id in candidates:
            restricted = mask_of(tuple_id) & positive_mask
            restricted_of[tuple_id] = restricted
            if restricted not in seen:
                seen.add(restricted)
                distinct.append(restricted)
        by_restricted_type = dict(zip(distinct, self.prune_counts_for_restricted(distinct), strict=True))
        return {tuple_id: by_restricted_type[restricted_of[tuple_id]] for tuple_id in candidates}

    def simulate_label(self, tuple_id: int, label: Label | str | bool) -> InferenceState:
        """A copy of the state with one extra label (the current state is untouched).

        Copy-on-write: the clone shares the table/universe/type index and
        starts from copies of the example set, space masks and type table,
        so the simulation costs one delta update — not a rebuild.
        """
        clone = self.copy()
        clone.add_label(tuple_id, label)
        return clone

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def copy(self) -> InferenceState:
        """An independent copy sharing the immutable table/universe/type index.

        The example set and space masks are copied in O(#labels + |N|) and
        the type table copy-on-write in O(1) — no re-derivation from the
        example set.
        """
        clone = type(self).__new__(type(self))
        clone.table = self.table
        clone.universe = self.universe
        clone.type_index = self.type_index
        clone.examples = self.examples.copy()
        clone.strict = self.strict
        clone.space = self.space._clone_with_examples(clone.examples)
        clone.type_table = self.type_table.copy()
        return clone

    def statistics(self) -> dict[str, float]:
        """Progress statistics shown in the demo interface.

        Counts and relative percentages of explicitly labeled tuples, tuples
        deemed uninformative (grayed out), and tuples still informative.
        Computed type-level (labeled + informative from the type table, certain as
        the remainder) — no per-tuple sweep.
        """
        total_tuples = len(self.table)
        total = total_tuples or 1
        labeled = len(self.examples.labeled_ids)
        informative = self.type_table.informative_count()
        certain = total_tuples - labeled - informative
        return {
            "total_tuples": total_tuples,
            "labeled": labeled,
            "labeled_pct": 100.0 * labeled / total,
            "uninformative": certain,
            "uninformative_pct": 100.0 * certain / total,
            "informative": informative,
            "informative_pct": 100.0 * informative / total,
            "atoms_in_universe": self.universe.size,
            "atoms_in_canonical_query": len(self.inferred_query()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InferenceState(tuples={len(self.table)}, atoms={self.universe.size}, "
            f"labeled={len(self.examples)}, converged={self.is_converged()})"
        )
