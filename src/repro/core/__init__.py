"""Core of JIM: the interactive join-query inference model and engine.

The subpackage implements the paper's primary contribution: equality atoms and
atom universes, join queries, equality types, example sets, the consistent
query space, informativeness classification, label propagation, the
interactive inference engine (Figure 2 of the paper), oracles standing in for
the user, and the strategy families (random / local / lookahead / optimal).

The hot path is *incremental*: a label is applied as a delta to the
consistent space (:mod:`.space`) and to the state's per-type table
(:class:`.kernels.TypeTable`, over the shared arrays of the
:class:`.equality_types.EqualityTypeIndex`), propagation results are derived
from the types the delta flipped (:mod:`.propagation`), and lookahead scores
are computed against one shared informative-type snapshot per step
(:meth:`.state.InferenceState.prune_counts_all`).  See the individual module
docstrings for the delta-update and cache-invalidation rules;
``benchmarks/bench_incremental_engine.py`` checks the machinery against a
from-scratch rebuild for observational equivalence and speed.
"""

from .atoms import AtomScope, AtomUniverse, EqualityAtom, is_subset, popcount
from .engine import (
    InferenceResult,
    InferenceTrace,
    Interaction,
    JoinInferenceEngine,
    infer_join,
)
from .equality_types import EqualityTypeIndex
from .examples import Example, ExampleSet, Label
from .informativeness import (
    TupleStatus,
    classify_all,
    classify_tuple,
    has_informative_tuple,
    informative_ids,
    uninformative_ids,
)
from .oracle import (
    CallbackOracle,
    ConsoleOracle,
    FixedLabelsOracle,
    GoalQueryOracle,
    NoisyOracle,
    Oracle,
)
from .propagation import PropagationResult, delta_result, diff_statuses
from .queries import JoinQuery
from .space import ConsistentQuerySpace
from .state import InferenceState

__all__ = [
    "AtomScope",
    "AtomUniverse",
    "CallbackOracle",
    "ConsistentQuerySpace",
    "ConsoleOracle",
    "EqualityAtom",
    "EqualityTypeIndex",
    "Example",
    "ExampleSet",
    "FixedLabelsOracle",
    "GoalQueryOracle",
    "InferenceResult",
    "InferenceState",
    "InferenceTrace",
    "Interaction",
    "JoinInferenceEngine",
    "JoinQuery",
    "Label",
    "NoisyOracle",
    "Oracle",
    "PropagationResult",
    "TupleStatus",
    "classify_all",
    "classify_tuple",
    "delta_result",
    "diff_statuses",
    "has_informative_tuple",
    "infer_join",
    "informative_ids",
    "is_subset",
    "popcount",
    "uninformative_ids",
]
