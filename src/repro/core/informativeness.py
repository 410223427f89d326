"""Classifying candidate tuples: informative, certain, or already labeled.

After each answered membership query JIM partitions the unlabeled candidate
tuples into

* **informative** tuples — consistent queries disagree on them, so labeling
  one of them narrows the space; these are the only tuples worth asking about;
* **certain-positive** tuples — every consistent query selects them; their
  label is implied, so they are "grayed out";
* **certain-negative** tuples — no consistent query selects them; likewise
  grayed out.

The classification of a tuple depends only on its equality type, the positive
mask ``M`` and the negative types (see :mod:`repro.core.space`), so all the
functions here work type-wise and are linear in the number of distinct types.

**Incremental classification.**  An
:class:`~repro.core.state.InferenceState` keeps the per-type certain label
and the per-type count of unlabeled tuples in a
:class:`~repro.core.kernels.TypeTable` over its index's shared arrays, and
refreshes them with a *delta* after each label instead of re-deriving them
from scratch.  The invalidation rule exploits a monotonicity invariant of the
consistent space: while the example set stays consistent, a label only ever
shrinks ``M`` and grows the negative list, so a type that is already certain
can never become informative again (and never flips between certain-positive
and certain-negative).  After a label it therefore suffices to re-evaluate the
currently *informative* types; when the example set has become inconsistent
(non-strict mode) the invariant no longer holds and the table falls back to a
full per-type recomputation.  The functions here are the from-scratch
references the tests compare that table against, plus the one-shot loop
guard :func:`has_informative_tuple` and :func:`unlabeled_ids_of_types`, the
id materialisation shared with :mod:`repro.core.propagation`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .equality_types import EqualityTypeIndex
from .examples import ExampleSet, Label
from .kernels import UNKNOWN, certain_codes
from .space import ConsistentQuerySpace


class TupleStatus(enum.Enum):
    """The status of one candidate tuple with respect to the current examples."""

    LABELED_POSITIVE = "labeled+"
    LABELED_NEGATIVE = "labeled-"
    CERTAIN_POSITIVE = "certain+"
    CERTAIN_NEGATIVE = "certain-"
    INFORMATIVE = "informative"

    @property
    def is_labeled(self) -> bool:
        """Whether the tuple was explicitly labeled by the user."""
        return self in (TupleStatus.LABELED_POSITIVE, TupleStatus.LABELED_NEGATIVE)

    @property
    def is_certain(self) -> bool:
        """Whether the tuple's label is implied but was not given by the user."""
        return self in (TupleStatus.CERTAIN_POSITIVE, TupleStatus.CERTAIN_NEGATIVE)

    @property
    def is_uninformative(self) -> bool:
        """Whether labeling the tuple would bring no new information.

        Both explicitly labeled tuples and certain tuples are uninformative;
        only :attr:`INFORMATIVE` tuples are worth presenting to the user.
        """
        return self is not TupleStatus.INFORMATIVE

    @property
    def implied_label(self) -> Label | None:
        """The label the status implies, when there is one."""
        if self in (TupleStatus.LABELED_POSITIVE, TupleStatus.CERTAIN_POSITIVE):
            return Label.POSITIVE
        if self in (TupleStatus.LABELED_NEGATIVE, TupleStatus.CERTAIN_NEGATIVE):
            return Label.NEGATIVE
        return None


def classify_tuple(
    space: ConsistentQuerySpace,
    examples: ExampleSet,
    tuple_id: int,
) -> TupleStatus:
    """Status of a single tuple under the current examples."""
    label = examples.label_of(tuple_id)
    if label is Label.POSITIVE:
        return TupleStatus.LABELED_POSITIVE
    if label is Label.NEGATIVE:
        return TupleStatus.LABELED_NEGATIVE
    certain = space.certain_label_for(space.type_index.mask(tuple_id))
    if certain is True:
        return TupleStatus.CERTAIN_POSITIVE
    if certain is False:
        return TupleStatus.CERTAIN_NEGATIVE
    return TupleStatus.INFORMATIVE


def classify_all(
    space: ConsistentQuerySpace,
    examples: ExampleSet,
    tuple_ids: Iterable[int] | None = None,
) -> dict[int, TupleStatus]:
    """Status of every tuple (or of the given ids), computed type-wise.

    The per-type certain label is computed once per distinct equality type,
    so the cost is O(#distinct types × #negatives) plus O(#tuples).
    """
    type_index = space.type_index
    if tuple_ids is not None:
        pairs = ((tuple_id, type_index.mask(tuple_id)) for tuple_id in tuple_ids)
    else:
        # Full sweep: stream the masks in tuple_id order — cheaper than a
        # per-id decode on factorized tables, without caching an O(#tuples)
        # materialisation on the index.
        pairs = zip(range(len(type_index)), type_index.iter_masks(), strict=True)
    certain_by_type: dict[int, bool | None] = {}
    statuses: dict[int, TupleStatus] = {}
    for tuple_id, mask in pairs:
        label = examples.label_of(tuple_id)
        if label is Label.POSITIVE:
            statuses[tuple_id] = TupleStatus.LABELED_POSITIVE
            continue
        if label is Label.NEGATIVE:
            statuses[tuple_id] = TupleStatus.LABELED_NEGATIVE
            continue
        if mask not in certain_by_type:
            certain_by_type[mask] = space.certain_label_for(mask)
        certain = certain_by_type[mask]
        if certain is True:
            statuses[tuple_id] = TupleStatus.CERTAIN_POSITIVE
        elif certain is False:
            statuses[tuple_id] = TupleStatus.CERTAIN_NEGATIVE
        else:
            statuses[tuple_id] = TupleStatus.INFORMATIVE
    return statuses


def unlabeled_ids_of_types(
    type_index: EqualityTypeIndex,
    type_masks: Iterable[int],
    labeled_ids: frozenset[int],
) -> list[int]:
    """The unlabeled tuple ids of the given equality types, ascending.

    The shared materialisation step of :meth:`InferenceState.informative_ids
    <repro.core.state.InferenceState.informative_ids>` and
    :func:`~repro.core.propagation.delta_result`: per-type id lists come from
    the (possibly factorized) index and are merged here.
    """
    ids = [
        tuple_id
        for mask in type_masks
        for tuple_id in type_index.tuples_with_mask(mask)
        if tuple_id not in labeled_ids
    ]
    ids.sort()
    return ids


def informative_ids(space: ConsistentQuerySpace, examples: ExampleSet) -> list[int]:
    """Ids of the informative tuples, in tuple-id order."""
    return [
        tuple_id
        for tuple_id, status in classify_all(space, examples).items()
        if status is TupleStatus.INFORMATIVE
    ]


def uninformative_ids(space: ConsistentQuerySpace, examples: ExampleSet) -> list[int]:
    """Ids of the unlabeled tuples whose label is already implied (grayed out)."""
    return [
        tuple_id
        for tuple_id, status in classify_all(space, examples).items()
        if status.is_certain
    ]


def has_informative_tuple(space: ConsistentQuerySpace, examples: ExampleSet) -> bool:
    """Whether at least one informative tuple remains (the loop's guard).

    A one-shot check for callers without an
    :class:`~repro.core.state.InferenceState`, which answers the same
    question from its long-lived type table: the per-type certain labels
    come from one batch :func:`~repro.core.kernels.certain_codes` pass, and
    the scan stops at the first informative type.
    """
    type_index = space.type_index
    labeled_per_type: dict[int, int] = {}
    for tuple_id in examples.labeled_ids:
        mask = type_index.mask(tuple_id)
        labeled_per_type[mask] = labeled_per_type.get(mask, 0) + 1
    sizes = type_index.type_sizes()
    masks = type_index.distinct_masks
    codes = certain_codes(masks, space.positive_mask, space.negative_masks)
    for mask, code in zip(masks, codes, strict=True):
        if code == UNKNOWN and sizes[mask] > labeled_per_type.get(mask, 0):
            return True
    return False
