"""Property-based tests: the array-backed kernels ≡ the scalar reference.

The kernels of :mod:`repro.core.kernels` are the storage and math layer of
the whole hot loop, so they get their own equivalence suite:

* the batch classification (:func:`certain_codes`) and the lookahead kernel
  (:func:`prune_counts_batch`) must agree with an independent scalar
  re-implementation of the paper's formulas on *every* path: the
  row-blocked and bit-sliced kernels of the int64 lane, and the object lane
  that masks past bit 62 (up to 2⁷⁰ here) and counts summing past 2⁶³ take;
* the lookahead kernel must give the same answer whatever its row block
  size and on either side of the bit-sliced cutoff, take the exact
  bit-sliced path once the counts sum to 2⁵³, and score a 1500 × 1500 call
  in a few MB;
* candidates carrying bits outside ``M`` must score as their restriction to
  ``M`` on every path;
* a :class:`TypeTable` must behave the same on both lanes (int64 and
  ``object`` arrays) through arbitrary refresh/decrement/copy sequences, its
  copy-on-write clones must be isolated from their parents, and its flips,
  informative snapshot and lookahead scores must match the scalar reference;
* a full :class:`InferenceState` driven through randomised label sequences —
  over tables with ``None``/NaN cells and over sampled cross products — must
  produce identical statuses, prune counts and propagation results on the
  int64 lane and on the object lane (the one mask-lane rule,
  :func:`repro.relational.columnar.mask_lane`, patched to ``object``).
"""

from __future__ import annotations

import random
import tracemalloc

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CandidateTable, InferenceState, Label
from repro.core import kernels
from repro.core.atoms import is_subset
from repro.core.informativeness import classify_all
from repro.core.kernels import (
    CERTAIN_NEGATIVE,
    CERTAIN_POSITIVE,
    UNKNOWN,
    TypeTable,
    certain_codes,
    prune_counts_batch,
)
from repro.datasets.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import InconsistentLabelError
from repro.relational import columnar

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Narrow masks ride the int64 lane; wide ones (up to 2⁷⁰) the object lane.
NARROW_MASKS = st.integers(min_value=0, max_value=(1 << 12) - 1)
WIDE_MASKS = st.integers(min_value=0, max_value=(1 << 70) - 1)

#: The two lanes of a type table's arrays.
LANES = (numpy.int64, object)


# --------------------------------------------------------------------------- #
# Scalar reference: the paper's formulas, re-implemented independently
# --------------------------------------------------------------------------- #
def _reference_code(mask: int, positive_mask: int, negative_masks: list[int]) -> int:
    """Certain-label code per the seed's ``certain_label_for`` logic."""
    if is_subset(positive_mask, mask):
        return CERTAIN_POSITIVE
    restricted = positive_mask & mask
    if any(is_subset(restricted, neg) for neg in negative_masks):
        return CERTAIN_NEGATIVE
    return UNKNOWN


def _reference_prune_counts(
    snapshot: list[tuple[int, int]],
    candidate_type: int,
    positive_mask: int,
    negative_masks: list[int],
) -> tuple[int, int]:
    """Prune counts per the seed's per-candidate scalar loop."""
    new_positive_mask = positive_mask & candidate_type
    resolved_if_positive = 0
    resolved_if_negative = 0
    for mask, count in snapshot:
        restricted = new_positive_mask & mask
        certain_positive = is_subset(new_positive_mask, mask)
        certain_negative = any(is_subset(restricted, neg) for neg in negative_masks)
        if certain_positive or certain_negative:
            resolved_if_positive += count
        if is_subset(positive_mask & mask, candidate_type):
            resolved_if_negative += count
    return resolved_if_positive, resolved_if_negative


def _reference_batch(masks, counts, candidate_types, positive_mask, negative_masks):
    snapshot = list(zip(masks, counts, strict=True))
    return [
        _reference_prune_counts(snapshot, candidate, positive_mask, negative_masks)
        for candidate in candidate_types
    ]


#: ``(_BITSLICE_CELLS, lane of the mask columns)`` per kernel path.  The
#: row-blocked kernel takes every int64 call below its cutoff whose counts
#: sum below 2⁵³, the bit-sliced kernel every call at a cutoff of 0, and
#: object arrays put a call on the object lane whatever its size.
PATHS = {
    "row-blocked": (1 << 62, None),
    "bit-sliced": (0, None),
    "object lane": (1 << 62, object),
}


def _prune_counts_on(path, masks, counts, candidates, positive_mask, negative_masks):
    """:func:`prune_counts_batch` with its path forced as ``PATHS[path]`` says."""
    cutoff, lane = PATHS[path]
    if lane is not None:
        masks, candidates = (numpy.asarray(column, dtype=lane) for column in (masks, candidates))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BITSLICE_CELLS", cutoff)
        return prune_counts_batch(masks, counts, candidates, positive_mask, negative_masks)


def _assert_every_path_matches_reference(
    masks, counts, candidates, positive_mask, negative_masks
):
    expected = _reference_batch(masks, counts, candidates, positive_mask, negative_masks)
    for path in PATHS:
        got = _prune_counts_on(path, masks, counts, candidates, positive_mask, negative_masks)
        assert got == expected, path


def _large_call():
    """A 1500 × 1500 lookahead call over 36 atoms (the bit-sliced path)."""
    rng = random.Random(3)
    positive_mask = (1 << 36) - 1
    masks = rng.sample(range(1 << 36), 1500)
    counts = [rng.randint(1, 9) for _ in masks]
    restricted = [mask & positive_mask for mask in rng.sample(range(1 << 36), 1500)]
    negative_masks = [rng.getrandbits(36) for _ in range(6)]
    return masks, counts, restricted, positive_mask, negative_masks


def _never_called(*_args):
    raise AssertionError("this kernel path must not run")


@st.composite
def kernel_inputs(draw, mask_strategy=NARROW_MASKS):
    """Random (masks, counts, M, N) quadruples for the batch kernels."""
    masks = draw(st.lists(mask_strategy, min_size=0, max_size=10, unique=True))
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    positive_mask = draw(mask_strategy)
    negative_masks = draw(st.lists(mask_strategy, min_size=0, max_size=4))
    return masks, counts, positive_mask, negative_masks


# --------------------------------------------------------------------------- #
# Batch kernels vs the scalar reference
# --------------------------------------------------------------------------- #
class TestBatchKernels:
    @SETTINGS
    @given(inputs=kernel_inputs())
    def test_certain_codes_match_reference(self, inputs):
        # Lists of narrow masks take the int64 lane; an object array keeps
        # the object lane.
        masks, _, positive_mask, negative_masks = inputs
        expected = [_reference_code(mask, positive_mask, negative_masks) for mask in masks]
        assert certain_codes(masks, positive_mask, negative_masks) == expected
        wide = numpy.asarray(masks, dtype=object)
        assert certain_codes(wide, positive_mask, negative_masks) == expected

    @SETTINGS
    @given(inputs=kernel_inputs(mask_strategy=WIDE_MASKS))
    def test_certain_codes_wide_masks_stay_exact(self, inputs):
        # Masks past bit 62 are never squeezed into the int64 lane.
        masks, _, positive_mask, negative_masks = inputs
        expected = [_reference_code(mask, positive_mask, negative_masks) for mask in masks]
        assert certain_codes(masks, positive_mask, negative_masks) == expected

    @SETTINGS
    @given(
        inputs=kernel_inputs(),
        candidate_types=st.lists(NARROW_MASKS, min_size=0, max_size=8),
    )
    def test_prune_counts_batch_matches_seed_formula(self, inputs, candidate_types):
        masks, counts, positive_mask, negative_masks = inputs
        restricted = [candidate & positive_mask for candidate in candidate_types]
        _assert_every_path_matches_reference(
            masks, counts, restricted, positive_mask, negative_masks
        )

    @SETTINGS
    @given(
        inputs=kernel_inputs(mask_strategy=WIDE_MASKS),
        candidate_types=st.lists(WIDE_MASKS, min_size=0, max_size=6),
    )
    def test_prune_counts_wide_masks_stay_exact(self, inputs, candidate_types):
        masks, counts, positive_mask, negative_masks = inputs
        restricted = [candidate & positive_mask for candidate in candidate_types]
        _assert_every_path_matches_reference(
            masks, counts, restricted, positive_mask, negative_masks
        )

    @SETTINGS
    @given(
        inputs=kernel_inputs(),
        candidate_types=st.lists(NARROW_MASKS, min_size=1, max_size=8),
    )
    def test_unrestricted_candidates_score_as_restricted(self, inputs, candidate_types):
        # Bits outside M must not change a score on any path: row-blocked,
        # bit-sliced and the object lane.
        masks, counts, positive_mask, negative_masks = inputs
        _assert_every_path_matches_reference(
            masks, counts, candidate_types, positive_mask, negative_masks
        )

    @pytest.mark.parametrize("block_cells", [1, 5, 64])
    @SETTINGS
    @given(
        inputs=kernel_inputs(),
        candidate_types=st.lists(NARROW_MASKS, min_size=1, max_size=24),
        data=st.data(),
    )
    def test_prune_counts_across_row_blocks(self, block_cells, inputs, candidate_types, data):
        # Tiny blocks make one call span several blocks with a ragged last
        # one; the negatives carry duplicates, members dominated by another
        # negative and members that differ only outside M, which every
        # path drops by testing only the antichain of {n ∩ M}.
        masks, counts, positive_mask, negative_masks = inputs
        negatives = list(negative_masks)
        for neg in negative_masks:
            negatives.append(neg)
            negatives.append(neg & data.draw(NARROW_MASKS))
            negatives.append(neg ^ (data.draw(NARROW_MASKS) & ~positive_mask))
        negatives = data.draw(st.permutations(negatives))
        restricted = [candidate & positive_mask for candidate in candidate_types]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_BLOCK_CELLS", block_cells)
            _assert_every_path_matches_reference(
                masks, counts, restricted, positive_mask, negatives
            )


class TestPruneCountsLimits:
    """The lookahead kernel's sums stay exact and its memory bounded."""

    @pytest.mark.parametrize(
        "counts",
        [
            [(1 << 52) + 1, (1 << 52) - 2, 1],  # sums to 2⁵³ - 1: the float path, exact
            [(1 << 52) + 1, (1 << 52) - 1],  # sums to exactly 2⁵³
            [(1 << 53) + 1, 2, 3],  # 2⁵³ + 1 is not a float64
            [(1 << 61) + 1, (1 << 61) - 1, 7],  # near the int64 lane's limit
            [(1 << 62) + 1, 1 << 62, 7],  # sums past 2⁶³: the object lane
            [(1 << 64) + 5, (1 << 63) - 1, 3],  # counts past the int64 lane
        ],
    )
    def test_counts_past_the_exact_float_range(self, counts):
        masks = [0b0111, 0b1011, 0b1101][: len(counts)]
        positive_mask, negative_masks = 0b1111, [0b0011, 0b0101]
        candidate_types = [0b0001, 0b0011, 0b0111, 0b1111, 0b1010]
        restricted = [candidate & positive_mask for candidate in candidate_types]
        _assert_every_path_matches_reference(
            masks, counts, restricted, positive_mask, negative_masks
        )

    @SETTINGS
    @given(
        inputs=kernel_inputs(),
        offsets=st.lists(st.integers(min_value=-(1 << 20), max_value=1 << 20), max_size=10),
        candidate_types=st.lists(NARROW_MASKS, min_size=1, max_size=6),
        base=st.sampled_from((1 << 55, 1 << 63)),
    )
    def test_large_counts_take_the_exact_bit_sliced_path(
        self, inputs, offsets, candidate_types, base
    ):
        # Counts around 2⁵⁵ sum past 2⁵³ (no float64 sum is exact there) but
        # stay inside the int64 lane; counts around 2⁶³ sum past it.  Either
        # way, however small the call, the bit-sliced kernel takes it and its
        # popcount sums match the reference exactly.
        masks, _, positive_mask, negative_masks = inputs
        masks = masks[: len(offsets)]
        if not masks:
            return
        counts = [base + offset for offset in offsets[: len(masks)]]
        expected = _reference_batch(
            masks, counts, candidate_types, positive_mask, negative_masks
        )
        taken = []
        with pytest.MonkeyPatch.context() as patch:
            kernel = kernels._bitsliced_prune_counts
            patch.setattr(
                kernels,
                "_bitsliced_prune_counts",
                lambda *args: taken.append("bit-sliced") or kernel(*args),
            )
            patch.setattr(kernels, "_rowblocked_prune_counts", _never_called)
            got = prune_counts_batch(
                masks, counts, candidate_types, positive_mask, negative_masks
            )
        assert taken == ["bit-sliced"]
        assert got == expected

    def test_large_call_memory_stays_bounded(self):
        # A 1500 × 1500 call: one int64 K×I temporary alone would take 18 MB.
        args = _large_call()
        tracemalloc.start()
        try:
            prune_counts_batch(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"


@st.composite
def bitslice_inputs(draw, top: int = 61):
    """Lookahead calls shaped for the bit-sliced kernel's edge cases.

    ``M`` has no atom, 1–8 atoms (one chunk) or 9 or more atoms spread over
    bits 0–``top``, always including bit ``top`` (61, the int64 lane's last
    bit, or 69 on the object lane); I runs to 150 types, so the type
    bitsets span one to three words, the last one mostly partial; counts
    reach 2⁴⁰ (many bit planes) and may be zero; the negatives carry
    duplicates, members dominated under ``M`` and members that differ only
    outside it.
    """
    lane_masks = st.integers(min_value=0, max_value=(1 << (top + 1)) - 1)
    atoms = draw(
        st.one_of(
            st.just([]),
            st.lists(st.integers(min_value=0, max_value=top), min_size=1, max_size=8, unique=True),
            st.lists(
                st.integers(min_value=0, max_value=top - 1), min_size=8, max_size=top, unique=True
            ).map(lambda atoms: [*atoms, top]),
        )
    )
    positive_mask = sum(1 << atom for atom in atoms)
    num_types = draw(st.integers(min_value=1, max_value=150))
    masks = draw(st.lists(lane_masks, min_size=num_types, max_size=num_types, unique=True))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 40), min_size=len(masks), max_size=len(masks)
        )
    )
    # Candidates drawn around the types, so that c ⊆ r and r ∩ M ⊆ c both
    # hold for some pairs; candidates keep their bits outside M.
    candidates = [
        draw(st.sampled_from(masks)) & draw(lane_masks) | draw(st.sampled_from((0, positive_mask)))
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    negatives = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        neg = draw(st.sampled_from(masks)) | draw(lane_masks) & draw(lane_masks)
        negatives += [neg, neg, neg & draw(lane_masks), neg ^ (draw(lane_masks) & ~positive_mask)]
    negatives = draw(st.permutations(negatives))
    return masks, counts, candidates, positive_mask, negatives


class TestTypeGroups:
    """Grouping a snapshot by ``E(t) ∩ M`` ≡ a dict over the restricted types."""

    @SETTINGS
    @given(inputs=kernel_inputs(), data=st.data())
    def test_groups_match_a_dict_on_both_lanes(self, inputs, data):
        masks, counts, positive_mask, _ = inputs
        members: dict[int, list[int]] = {}
        totals: dict[int, int] = {}
        for mask, count in zip(masks, counts, strict=True):
            members.setdefault(mask & positive_mask, []).append(mask)
            totals[mask & positive_mask] = totals.get(mask & positive_mask, 0) + count
        chosen = data.draw(st.lists(st.integers(min_value=0, max_value=len(totals))))
        chosen = [group for group in chosen if group < len(totals)]
        restricted = sorted(totals)
        for lane in (numpy.int64, object):
            snapshot = [numpy.asarray(column, dtype=lane) for column in (masks, counts)]
            groups = kernels.TypeGroups(*snapshot, positive_mask)
            assert len(groups) == len(restricted)
            assert list(groups.restricted) == restricted
            assert groups.totals() == [totals[key] for key in restricted]
            assert groups.members(chosen) == [
                mask for mask in masks if restricted.index(mask & positive_mask) in chosen
            ]

    @SETTINGS
    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
            max_size=30,
        ),
        scale=st.sampled_from((1, 1 << 40)),
    )
    def test_score_levels_rank_every_position_once(self, pairs, scale):
        # A coarse score, so that distinct pairs share levels; counts near
        # 2⁴⁰ make the pair keys overflow int64, which keys them as Python
        # ints instead.
        pairs = [(a * scale, b * scale) for a, b in pairs]

        def value(a: int, b: int) -> float:
            return float(min(a, b) // (2 * scale))

        expected = []
        for level in sorted({value(*pair) for pair in pairs}, reverse=True):
            expected.append([i for i, pair in enumerate(pairs) if value(*pair) == level])
        columns = [[a for a, _ in pairs], [b for _, b in pairs]]
        for lane in (numpy.int64, object):
            arrays = [numpy.asarray(column, dtype=lane) for column in columns]
            assert list(kernels.score_levels(*arrays, value)) == expected


class TestBitSlicedKernel:
    """The bit-sliced lookahead kernel ≡ the reference, on every call shape."""

    @pytest.mark.parametrize("block_words", [1, 3, None])
    @pytest.mark.parametrize("lane", ["int64", "object"])
    @SETTINGS
    @given(data=st.data())
    def test_forced_path_matches_reference(self, block_words, lane, data):
        # The int64 lane reaches bit 61; the object lane, given object
        # arrays, bit 69, and takes the bit-sliced kernel at any size.
        masks, counts, candidates, positive_mask, negatives = data.draw(
            bitslice_inputs(top=61 if lane == "int64" else 69)
        )
        expected = _reference_batch(masks, counts, candidates, positive_mask, negatives)
        if lane == "object":
            masks, candidates = (numpy.asarray(column, dtype=object) for column in (masks, candidates))
        with pytest.MonkeyPatch.context() as patch:
            if lane == "int64":
                patch.setattr(kernels, "_BITSLICE_CELLS", 0)
            patch.setattr(kernels, "_rowblocked_prune_counts", _never_called)
            if block_words is not None:
                # Row blocks of one and three words: several blocks per call,
                # the last one short.
                patch.setattr(kernels, "_BITSLICE_BLOCK_WORDS", block_words)
            got = prune_counts_batch(masks, counts, candidates, positive_mask, negatives)
        assert got == expected

    @pytest.mark.parametrize(
        ("num_candidates", "num_types", "path"),
        [(129, 127, "_rowblocked_prune_counts"), (128, 128, "_bitsliced_prune_counts")],
    )
    def test_cutoff_boundary(self, num_candidates, num_types, path):
        # 129 × 127 = 2¹⁴ − 1 cells stay row-blocked; 128 × 128 = 2¹⁴ cells
        # take the bit-sliced path; both match the reference.
        assert kernels._BITSLICE_CELLS == 1 << 14
        assert num_candidates * num_types in (kernels._BITSLICE_CELLS - 1, kernels._BITSLICE_CELLS)
        rng = random.Random(num_types)
        positive_mask = rng.getrandbits(20)
        masks = rng.sample(range(1 << 20), num_types)
        counts = [rng.randint(0, 5) for _ in masks]
        candidates = [rng.choice(masks) & rng.getrandbits(20) for _ in range(num_candidates)]
        negatives = [rng.getrandbits(20) for _ in range(4)]
        expected = _reference_batch(masks, counts, candidates, positive_mask, negatives)
        taken = []
        with pytest.MonkeyPatch.context() as patch:
            kernel = getattr(kernels, path)
            patch.setattr(kernels, path, lambda *args: taken.append(path) or kernel(*args))
            got = prune_counts_batch(masks, counts, candidates, positive_mask, negatives)
        assert taken == [path]
        assert got == expected


# --------------------------------------------------------------------------- #
# The type table on both lanes
# --------------------------------------------------------------------------- #
def _type_table(masks, sizes, lane):
    """A fresh table over ``masks`` and ``sizes``, both arrays in ``lane``."""
    return TypeTable(
        numpy.asarray(masks, dtype=lane),
        numpy.asarray(sizes, dtype=lane),
        {mask: row for row, mask in enumerate(masks)},
    )


def _table_observables(table, masks):
    return (
        [table.certain_of(mask) for mask in masks],
        [table.unlabeled_of(mask) for mask in masks],
        table.informative_items(),
        table.informative_count(),
        table.has_informative(),
    )


def _random_table_ops(tables, masks, ops):
    """Drive every table through one random op sequence; flips must agree."""
    for _ in range(ops.draw(st.integers(min_value=0, max_value=6))):
        action = ops.draw(st.sampled_from(("refresh", "refresh_all", "decrement", "copy")))
        if action in ("refresh", "refresh_all"):
            positive_mask = ops.draw(NARROW_MASKS)
            negative_masks = ops.draw(st.lists(NARROW_MASKS, min_size=0, max_size=3))
            flips = [
                table.refresh_certain(
                    positive_mask, negative_masks, only_unknown=action == "refresh"
                )
                for table in tables
            ]
            assert all(flip == flips[0] for flip in flips), "lanes reported different flips"
        elif action == "decrement":
            decrementable = [mask for mask in masks if tables[0].unlabeled_of(mask) > 0]
            if not decrementable:
                continue
            mask = ops.draw(st.sampled_from(decrementable))
            for table in tables:
                table.decrement_unlabeled(mask)
        else:
            # Copy-on-write: replace each table by its clone mid-sequence;
            # the discarded parents must not haunt the clones.
            tables = [table.copy() for table in tables]
    return tables


class TestTypeTableEquivalence:
    @SETTINGS
    @given(
        masks=st.lists(NARROW_MASKS, min_size=1, max_size=10, unique=True),
        sizes_seed=st.data(),
    )
    def test_int64_and_object_lane_tables_agree(self, masks, sizes_seed):
        # The same masks and sizes in int64 arrays and in object arrays must
        # stay observationally identical.
        sizes = sizes_seed.draw(
            st.lists(
                st.integers(min_value=0, max_value=20),
                min_size=len(masks),
                max_size=len(masks),
            )
        )
        tables = [_type_table(masks, sizes, lane) for lane in LANES]
        assert [table.informative_arrays()[0].dtype for table in tables] == [
            numpy.int64,
            object,
        ]
        tables = _random_table_ops(tables, masks, sizes_seed)
        observables = {
            (tuple(c), tuple(u), tuple(items), count, has)
            for c, u, items, count, has in (
                _table_observables(table, masks) for table in tables
            )
        }
        assert len(observables) == 1, "lanes diverged after the op sequence"

    @SETTINGS
    @given(
        masks=st.lists(NARROW_MASKS, min_size=1, max_size=8, unique=True),
        data=st.data(),
        lane=st.sampled_from(LANES),
    )
    def test_copy_on_write_isolation(self, masks, data, lane):
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=10),
                min_size=len(masks),
                max_size=len(masks),
            )
        )
        table = _type_table(masks, sizes, lane)
        positive_mask = data.draw(NARROW_MASKS)
        negative_masks = data.draw(st.lists(NARROW_MASKS, min_size=0, max_size=3))
        table.refresh_certain(positive_mask, negative_masks)
        before = _table_observables(table, masks)

        clone = table.copy()
        assert _table_observables(clone, masks) == before
        # Mutate the clone every way there is; the parent must not move.
        clone.decrement_unlabeled(data.draw(st.sampled_from(masks)))
        clone.refresh_certain(data.draw(NARROW_MASKS), [], only_unknown=False)
        assert _table_observables(table, masks) == before
        # ... and mutating the parent must not leak into a fresh clone.
        snapshot = _table_observables(clone, masks)
        table.decrement_unlabeled(data.draw(st.sampled_from(masks)))
        assert _table_observables(clone, masks) == snapshot

    @SETTINGS
    @given(
        inputs=kernel_inputs(),
        candidate_types=st.lists(NARROW_MASKS, min_size=0, max_size=8),
        lane=st.sampled_from(LANES),
    )
    def test_table_snapshot_scores_match_reference(self, inputs, candidate_types, lane):
        masks, sizes, positive_mask, negative_masks = inputs
        _assert_table_scores_like_reference(
            _type_table(masks, sizes, lane),
            masks, sizes, positive_mask, negative_masks, candidate_types,
        )

    @SETTINGS
    @given(
        inputs=kernel_inputs(mask_strategy=st.integers(1 << 63, (1 << 70) - 1)).filter(
            lambda inputs: inputs[0]
        ),
        candidate_types=st.lists(WIDE_MASKS, min_size=0, max_size=6),
    )
    def test_wide_masks_take_the_object_lane(self, inputs, candidate_types):
        # Masks past bit 62 cannot ride the int64 lane: an object-array
        # table keeps them as Python ints, with the same answers.
        masks, sizes, positive_mask, negative_masks = inputs
        table = _type_table(masks, sizes, object)
        assert table.informative_arrays()[0].dtype == object
        _assert_table_scores_like_reference(
            table, masks, sizes, positive_mask, negative_masks, candidate_types
        )

    def test_lane_follows_the_arrays_not_the_masks(self):
        # Every type of a 64-atom universe may hold only atoms below bit 62
        # while M = Ω holds bit 63: the lane comes from the index's object
        # array, so the refresh against M stays exact.
        masks, sizes = [0b0110, 0b0011, 0b1001], [2, 3, 4]
        table = _type_table(masks, sizes, object)
        assert table.informative_arrays()[0].dtype == object
        full = (1 << 64) - 1
        assert table.refresh_certain(full, []) == ([], [])
        assert table.refresh_certain(0b0111, [0b0001]) == ([], [0b1001])
        assert table.informative_items() == [(0b0110, 2), (0b0011, 3)]


def _assert_table_scores_like_reference(
    table, masks, sizes, positive_mask, negative_masks, candidate_types
):
    """A fresh table refreshed against ``(M, N)``: its flips, informative
    snapshot and lookahead scores all match the scalar reference."""
    codes = [_reference_code(mask, positive_mask, negative_masks) for mask in masks]
    flips = table.refresh_certain(positive_mask, negative_masks)
    assert flips == (
        [mask for mask, code in zip(masks, codes, strict=True) if code == CERTAIN_POSITIVE],
        [mask for mask, code in zip(masks, codes, strict=True) if code == CERTAIN_NEGATIVE],
    )
    snapshot = [
        (mask, size)
        for mask, size, code in zip(masks, sizes, codes, strict=True)
        if code == UNKNOWN and size > 0
    ]
    assert table.informative_items() == snapshot
    restricted = [candidate & positive_mask for candidate in candidate_types]
    got = prune_counts_batch(
        *table.informative_arrays(), restricted, positive_mask, negative_masks
    )
    assert got == [
        _reference_prune_counts(snapshot, candidate, positive_mask, negative_masks)
        for candidate in candidate_types
    ]


# --------------------------------------------------------------------------- #
# End-to-end: inference on both lanes, byte-identical
# --------------------------------------------------------------------------- #
@st.composite
def candidate_tables(draw, max_columns: int = 4, max_rows: int = 10) -> CandidateTable:
    """Random flat tables whose cells may be ``None`` or NaN."""
    num_columns = draw(st.integers(min_value=2, max_value=max_columns))
    num_rows = draw(st.integers(min_value=1, max_value=max_rows))
    domain = draw(st.integers(min_value=2, max_value=4))
    cell = st.one_of(
        st.integers(min_value=0, max_value=domain - 1),
        st.none(),
        st.just(float("nan")),
    )
    rows = draw(
        st.lists(
            st.tuples(*[cell] * num_columns),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    names = [f"c{i}" for i in range(num_columns)]
    return CandidateTable.from_rows(names, rows)


@st.composite
def sampled_tables(draw) -> CandidateTable:
    """Sampled cross products: the flat columnar path over factorized input."""
    tuples = draw(st.integers(min_value=3, max_value=8))
    config = SyntheticConfig(
        num_relations=2,
        attributes_per_relation=2,
        tuples_per_relation=tuples,
        domain_size=3,
        seed=draw(st.integers(min_value=0, max_value=5)),
    )
    max_rows = draw(st.integers(min_value=2, max_value=tuples * tuples - 1))
    return CandidateTable.cross_product(
        generate_instance(config),
        max_rows=max_rows,
        rng=random.Random(draw(st.integers(min_value=0, max_value=5))),
    )


def _state_observables(state: InferenceState):
    return (
        state.statuses(),
        state.informative_ids(),
        state.certain_ids(),
        state.has_informative_tuple(),
        state.prune_counts_all(),
        state.space.positive_mask,
        sorted(state.space.negative_masks),
    )


def _propagation_signature(result):
    return (
        tuple(result.newly_certain_positive),
        tuple(result.newly_certain_negative),
        result.informative_before,
        result.informative_after,
    )


def _run_label_sequence(table: CandidateTable, script: list[tuple[int, bool]]):
    """Replay one label script per lane; return the per-step observables.

    The object-lane run patches the one mask-lane rule to ``object`` and
    replays over a fresh copy of the table, whose index (memoised per table)
    is then built on that lane too.
    """
    per_lane = []
    for object_lane in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            run_table = table
            if object_lane:
                patch.setattr(columnar, "mask_lane", lambda _num_pairs: object)
                run_table = CandidateTable(table.attributes, list(table), name=table.name)
            state = InferenceState(run_table)
            steps = [_state_observables(state)]
            for index, positive in script:
                unlabeled = [
                    tid for tid in table.tuple_ids if tid not in state.labeled_ids()
                ]
                if not unlabeled:
                    break
                tuple_id = unlabeled[index % len(unlabeled)]
                try:
                    result = state.add_label(
                        tuple_id, Label.POSITIVE if positive else Label.NEGATIVE
                    )
                    steps.append(_propagation_signature(result))
                except InconsistentLabelError:
                    steps.append("rejected")
                steps.append(_state_observables(state))
            lane = state.type_table.informative_arrays()[0].dtype
            # The scalar classification reference must agree with the final state.
            assert state.statuses() == classify_all(state.space, state.examples)
        per_lane.append((str(lane), steps))
    return per_lane


LABEL_SCRIPTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200), st.booleans()),
    min_size=0,
    max_size=6,
)


class TestEndToEndLaneEquivalence:
    @SETTINGS
    @given(table=candidate_tables(), script=LABEL_SCRIPTS)
    def test_flat_tables_with_null_and_nan_cells(self, table, script):
        (int64_lane, reference), (object_lane, steps) = _run_label_sequence(table, script)
        assert (int64_lane, object_lane) == ("int64", "object")
        assert steps == reference

    @SETTINGS
    @given(table=sampled_tables(), script=LABEL_SCRIPTS)
    def test_sampled_cross_products(self, table, script):
        (int64_lane, reference), (object_lane, steps) = _run_label_sequence(table, script)
        assert (int64_lane, object_lane) == ("int64", "object")
        assert steps == reference
