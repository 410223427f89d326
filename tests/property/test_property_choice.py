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

Each property runs over flat and factorized (cross-product) tables, on the
pure-Python backend and on both numpy kernel paths (row-blocked, and
bit-sliced with ``_BITSLICE_CELLS`` forced to 0).  The brute-force counts are
always taken on the pure-Python kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CandidateTable, InferenceState, Label
from repro.core import kernels
from repro.core.kernels import HAVE_NUMPY, use_backend
from repro.core.strategies.lookahead import (
    EntropyStrategy,
    ExpectedPruneStrategy,
    KStepLookaheadStrategy,
    MinMaxPruneStrategy,
)
from repro.exceptions import InconsistentLabelError
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

#: (backend, _BITSLICE_CELLS) per kernel path; the row-blocked path keeps
#: every call below the cutoff.
PATHS = {
    "python": ("python", kernels._BITSLICE_CELLS),
    "row-blocked": ("numpy", 1 << 62),
    "bit-sliced": ("numpy", 0),
}


@pytest.fixture(params=sorted(PATHS))
def kernel_path(request):
    backend, cutoff = PATHS[request.param]
    if backend == "numpy" and not HAVE_NUMPY:
        pytest.skip("the numpy kernel paths need numpy")
    if cutoff == 0 and not kernels._HAVE_BITWISE_COUNT:
        pytest.skip("the bit-sliced path needs numpy.bitwise_count")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BITSLICE_CELLS", cutoff)
        with use_backend(backend):
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


def _brute_force_counts(state: InferenceState) -> dict[int, tuple[int, int]]:
    """Prune counts of every informative tuple, on the pure-Python kernel."""
    with use_backend("python"):
        return state.prune_counts_all()


def _ranked(counts: dict[int, tuple[int, int]], value, limit: int) -> list[int]:
    return sorted(counts, key=lambda tid: (-value(*counts[tid]), tid))[:limit]


def _label_steps(table: CandidateTable, data: st.DataObject):
    """A state driven through random labels, yielded before each label."""
    state = InferenceState(table)
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
