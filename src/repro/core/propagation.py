"""Label propagation: what a new label makes uninformative.

The demo's central interaction is that *after each given label JIM
interactively grays out the tuples that become uninformative*.  The
:class:`PropagationResult` describes exactly that effect for one label: which
previously informative tuples became certain-positive or certain-negative,
and how many informative tuples remain.  It is what the sessions layer shows
to the user and what lookahead strategies simulate to score candidate tuples.

Two builders produce the result: :func:`diff_statuses` compares two full
before/after classifications (the from-scratch reference, kept for external
callers and tests), while :func:`delta_result` assembles the same result
directly from the equality types the state's
:class:`~repro.core.kernels.TypeTable` reports as flipped by the label, which
is what the incremental engine uses.
Its id tuples are lazy: the interactive loop only reads ``pruned_count``,
which comes from the flipped types' sizes, so the ids are listed only when
a caller first reads them — O(#flipped types + #labels) per label instead
of O(#flipped tuples).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .equality_types import EqualityTypeIndex
from .examples import Label
from .informativeness import TupleStatus, unlabeled_ids_of_types

#: The id fields a :func:`delta_result` result lists on first access.
_ID_FIELDS = ("newly_certain_positive", "newly_certain_negative")


@dataclass(frozen=True)
class PropagationResult:
    """The effect of adding one label to the example set.

    Attributes
    ----------
    tuple_id / label:
        The membership query that was answered.
    newly_certain_positive / newly_certain_negative:
        Previously informative tuples whose label became implied.
    informative_before / informative_after:
        Number of informative tuples before and after the label (the labeled
        tuple itself counts in ``informative_before`` when it was informative).
    consistent:
        Whether the example set is still consistent after the label.

    A result built by :func:`delta_result` lists its two id tuples on first
    access, from the flipped types and the labeled ids of its own step.
    """

    tuple_id: int
    label: Label
    newly_certain_positive: tuple[int, ...] = field(default_factory=tuple)
    newly_certain_negative: tuple[int, ...] = field(default_factory=tuple)
    informative_before: int = 0
    informative_after: int = 0
    consistent: bool = True

    @property
    def newly_uninformative(self) -> tuple[int, ...]:
        """All tuples grayed out by this label (excluding the labeled tuple)."""
        return tuple(sorted(self.newly_certain_positive + self.newly_certain_negative))

    def __getattr__(self, name: str) -> tuple[int, ...]:
        # Reached only while a lazy result's id fields are still unset.
        pending = self.__dict__.get("_pending")
        if pending is None or name not in _ID_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        type_index, labeled_ids, positive_types, negative_types = pending
        for field_name, type_masks in zip(_ID_FIELDS, (positive_types, negative_types), strict=True):
            ids = tuple(unlabeled_ids_of_types(type_index, type_masks, labeled_ids))
            object.__setattr__(self, field_name, ids)
        del self.__dict__["_pending"]
        return self.__dict__[name]

    def __reduce__(self):
        # Pickle the listed ids, not the type index a lazy result holds.
        return (
            type(self),
            (
                self.tuple_id,
                self.label,
                self.newly_certain_positive,
                self.newly_certain_negative,
                self.informative_before,
                self.informative_after,
                self.consistent,
            ),
        )

    @property
    def pruned_count(self) -> int:
        """Number of tuples grayed out by this label."""
        pruned = self.__dict__.get("_pruned")
        if pruned is not None:
            return pruned
        return len(self.newly_certain_positive) + len(self.newly_certain_negative)

    @property
    def resolved_count(self) -> int:
        """Informative tuples resolved by this interaction (pruned + the labeled one)."""
        return self.informative_before - self.informative_after

    def summary(self) -> str:
        """One-line human-readable description of the propagation."""
        return (
            f"tuple {self.tuple_id} labeled {self.label.value}: "
            f"{self.pruned_count} tuple(s) grayed out, "
            f"{self.informative_after} informative tuple(s) remaining"
        )


def diff_statuses(
    before: dict[int, TupleStatus],
    after: dict[int, TupleStatus],
    labeled_tuple_id: int,
    label: Label,
    consistent: bool = True,
) -> PropagationResult:
    """Build a :class:`PropagationResult` from before/after classifications."""
    newly_positive = []
    newly_negative = []
    for tuple_id, status in after.items():
        if tuple_id == labeled_tuple_id:
            continue
        if before.get(tuple_id) is not TupleStatus.INFORMATIVE:
            continue
        if status is TupleStatus.CERTAIN_POSITIVE:
            newly_positive.append(tuple_id)
        elif status is TupleStatus.CERTAIN_NEGATIVE:
            newly_negative.append(tuple_id)
    informative_before = sum(
        1 for status in before.values() if status is TupleStatus.INFORMATIVE
    )
    informative_after = sum(1 for status in after.values() if status is TupleStatus.INFORMATIVE)
    return PropagationResult(
        tuple_id=labeled_tuple_id,
        label=label,
        newly_certain_positive=tuple(sorted(newly_positive)),
        newly_certain_negative=tuple(sorted(newly_negative)),
        informative_before=informative_before,
        informative_after=informative_after,
        consistent=consistent,
    )


def delta_result(
    type_index: EqualityTypeIndex,
    labeled_ids: frozenset[int],
    labeled_tuple_id: int,
    label: Label,
    flipped_positive_types: Iterable[int],
    flipped_negative_types: Iterable[int],
    informative_before: int,
    informative_after: int,
    consistent: bool = True,
) -> PropagationResult:
    """Build a :class:`PropagationResult` from the types flipped by one label.

    ``flipped_*_types`` are the equality types that were informative before
    the label and became certain after it (as reported by
    :meth:`~repro.core.kernels.TypeTable.refresh_certain`); the
    grayed-out tuples are exactly the unlabeled tuples of those types,
    excluding the tuple that was just labeled.  ``labeled_ids`` must be the
    labeled set *after* the new label.

    ``pruned_count`` is the flipped types' sizes minus their labeled tuples.
    The id tuples are listed on first access, through the shared
    (array-accelerated) :func:`~repro.core.informativeness.unlabeled_ids_of_types`
    helper, from the flipped types and ``labeled_ids`` as given here, so a
    result read after later labels still describes its own step.
    """
    positive_types = tuple(flipped_positive_types)
    negative_types = tuple(flipped_negative_types)
    flipped = {*positive_types, *negative_types}
    sizes = type_index.type_sizes()
    pruned = 0
    if flipped:
        pruned = sum(sizes[mask] for mask in flipped) - sum(
            1 for tuple_id in labeled_ids if type_index.mask(tuple_id) in flipped
        )
    result = PropagationResult.__new__(PropagationResult)
    for name, value in (
        ("tuple_id", labeled_tuple_id),
        ("label", label),
        ("informative_before", informative_before),
        ("informative_after", informative_after),
        ("consistent", consistent),
        ("_pruned", pruned),
        ("_pending", (type_index, labeled_ids, positive_types, negative_types)),
    ):
        object.__setattr__(result, name, value)
    return result
