"""Property-based tests: the type-level choice ≡ scoring every tuple on its own.

The lookahead strategies score restricted types, not tuples: the informative
snapshot is grouped by ``E(t) ∩ M``, the groups are scored in one kernel
call, the scalar score runs once per distinct pair of prune counts, and the
winners are resolved back to the smallest unlabeled id.  Each of those steps
is a shortcut, so the result is pinned against the brute force the paper's
definitions give directly:

* ``choose`` of the expected, minmax and entropy strategies is the argmax of
  ``score(*prune_counts_all()[t])`` over the informative tuples, smallest id
  on ties;
* the k-step beam is the informative tuples ranked by ``min(a, b)``
  descending, then by id, cut to the beam width;
* a top-k batch is the informative tuples ranked by the entropy score
  descending, then by id, cut to ``k``.

Each property runs over flat and factorized (cross-product) tables, on both
kernel paths of the int64 lane (row-blocked, and bit-sliced with
``_BITSLICE_CELLS`` forced to 0) and on the object lane (the one mask-lane
rule, :func:`repro.relational.columnar.mask_lane`, patched to ``object``, so
the index and every type table over it hold Python ints).  Every example
draws a new table, so its index is built under the path's patch.  The brute-force counts come
straight from the certain-label definitions, tuple by tuple, with no kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CandidateTable, InferenceState, Label
from repro.core import kernels
from repro.core.atoms import is_subset
from repro.core.informativeness import TupleStatus, classify_all
from repro.core.strategies.lookahead import (
    EntropyStrategy,
    ExpectedPruneStrategy,
    KStepLookaheadStrategy,
    MinMaxPruneStrategy,
)
from repro.exceptions import InconsistentLabelError
from repro.relational import columnar
from repro.relational.instance import DatabaseInstance
from repro.relational.relation import Relation
from repro.service.protocol import InteractionMode
from repro.service.stepper import InferenceSession

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

SCORED = (ExpectedPruneStrategy(), MinMaxPruneStrategy(), EntropyStrategy())

#: (_BITSLICE_CELLS, whether masks take the object lane) per kernel path; the
#: row-blocked path keeps every call below the cutoff.
PATHS = {
    "row-blocked": (1 << 62, False),
    "bit-sliced": (0, False),
    "object lane": (kernels._BITSLICE_CELLS, True),
}


@pytest.fixture(params=sorted(PATHS))
def kernel_path(request):
    cutoff, object_lane = PATHS[request.param]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BITSLICE_CELLS", cutoff)
        if object_lane:
            patch.setattr(columnar, "mask_lane", lambda _num_pairs: object)
        yield request.param


@st.composite
def flat_tables(draw) -> CandidateTable:
    """Random flat tables over a small domain, so types and scores collide."""
    num_columns = draw(st.integers(min_value=2, max_value=4))
    num_rows = draw(st.integers(min_value=1, max_value=14))
    domain = draw(st.integers(min_value=2, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * num_columns),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    return CandidateTable.from_rows([f"c{i}" for i in range(num_columns)], rows)


@st.composite
def factorized_tables(draw) -> CandidateTable:
    """Unsampled cross products of two small relations (lazy, factorized)."""
    relations = []
    for index in range(2):
        arity = draw(st.integers(min_value=1, max_value=2))
        num_rows = draw(st.integers(min_value=1, max_value=4))
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=2)] * arity),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        names = [f"a{j + 1}" for j in range(arity)]
        relations.append(Relation.build(f"R{index + 1}", names, rows))
    return CandidateTable.cross_product(DatabaseInstance("random", relations))


TABLES = st.one_of(flat_tables(), factorized_tables())


def _certain(positive_mask: int, negative_masks: list[int], mask: int) -> bool:
    """Whether a type's label is implied under ``(M, N)``, by definition."""
    return is_subset(positive_mask, mask) or any(
        is_subset(positive_mask & mask, neg) for neg in negative_masks
    )


def _brute_force_counts(state: InferenceState) -> dict[int, tuple[int, int]]:
    """Prune counts of every informative tuple, one hypothetical label at a time.

    A positive label of ``t`` shrinks ``M`` to ``M ∩ E(t)``; a negative one
    adds ``E(t)`` to the negative types.  Each count is the number of
    informative tuples whose label that answer implies.
    """
    statuses = classify_all(state.space, state.examples)
    informative = [tid for tid, status in statuses.items() if status is TupleStatus.INFORMATIVE]
    mask_of = state.type_index.mask
    positive_mask = state.space.positive_mask
    negative_masks = list(state.space.negative_masks)
    counts = {}
    for tuple_id in informative:
        candidate = mask_of(tuple_id)
        counts[tuple_id] = (
            sum(
                _certain(positive_mask & candidate, negative_masks, mask_of(other))
                for other in informative
            ),
            sum(
                _certain(positive_mask, [*negative_masks, candidate], mask_of(other))
                for other in informative
            ),
        )
    return counts


def _ranked(counts: dict[int, tuple[int, int]], value, limit: int) -> list[int]:
    return sorted(counts, key=lambda tid: (-value(*counts[tid]), tid))[:limit]


def _label_steps(table: CandidateTable, data: st.DataObject):
    """A state driven through random labels, yielded before each label."""
    state = InferenceState(table)
    # The table is new, so its index was built under the current lane rule.
    assert state.type_index.mask_array.dtype == columnar.mask_lane(state.universe.size)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        if not state.has_informative_tuple():
            return
        yield state
        informative = state.informative_ids()
        tuple_id = data.draw(st.sampled_from(informative))
        try:
            state.add_label(tuple_id, data.draw(st.sampled_from(list(Label))))
        except InconsistentLabelError:  # pragma: no cover - informative tuples take either label
            return


class TestChoiceMatchesBruteForce:
    @SETTINGS
    @given(table=TABLES, data=st.data())
    def test_scored_choice_is_the_per_tuple_argmax(self, kernel_path, table, data):
        for state in _label_steps(table, data):
            counts = _brute_force_counts(state)
            for strategy in SCORED:
                expected = _ranked(counts, strategy.score, 1)[0]
                assert strategy.choose(state) == expected, (kernel_path, strategy.name)

    @SETTINGS
    @given(table=TABLES, data=st.data(), width=st.integers(min_value=1, max_value=6))
    def test_beam_is_the_per_tuple_ranking(self, kernel_path, table, data, width):
        strategy = KStepLookaheadStrategy(depth=1, beam_width=width)
        for state in _label_steps(table, data):
            expected = _ranked(_brute_force_counts(state), min, width)
            assert strategy._beam(state) == expected, kernel_path

    @SETTINGS
    @given(table=TABLES, data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_top_k_batch_is_the_per_tuple_ranking(self, kernel_path, table, data, k):
        score = EntropyStrategy().score
        for state in _label_steps(table, data):
            session = InferenceSession(table, mode=InteractionMode.TOP_K, k=k, state=state)
            expected = _ranked(_brute_force_counts(state), score, k)
            assert session.propose_batch() == expected, kernel_path
            assert session.propose_batch(len(expected) + 3) == _ranked(
                _brute_force_counts(state), score, len(expected) + 3
            )
