"""Inputs, clients and the closed-loop session driver of the benchmark.

Every table is a cross product of two base relations that the benchmark
builds itself, so the output check can evaluate any query over the base
relations with numpy broadcasting instead of over the candidate tuples.

The seed changes the inputs without changing how hard they are: it relabels
the synthetic values through a bijection (equalities, hence equality types,
are kept), orders the sessions and mints their ids.  Goals, base rows and
the manual batches' picks are fixed, because the cost of a session depends
on its goal, and the cost of a step on which tuple ids the smallest-id
tie-break meets, far more than on anything the program does: on the wide
table one goal converges in 0.1 s and another in 1.6 s, shuffled rows moved
the flagship's median step by 22% across seeds, and drawn goals moved the
serving mix's questions per session by 5%.  So every seed asks the same
questions, and ``questions_per_session`` is exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import uuid
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.queries import JoinQuery
from repro.datasets.flights_hotels import (
    qualified_query_q1,
    qualified_query_q2,
    travel_instance,
)
from repro.datasets.setgame import FEATURES, card_deck, cards_relation, same_feature_query
from repro.datasets.synthetic import SyntheticConfig, generate_instance
from repro.relational.candidate import CandidateTable
from repro.relational.instance import DatabaseInstance
from repro.relational.relation import Relation
from repro.service import wire
from repro.service.protocol import BatchQuestionsAsked, Converged, QuestionAsked, event_from_wire
from repro.service.service import SessionDescriptor

#: Seed of the synthetic base relations, the goals and the manual picks; the
#: run's ``--seed`` only relabels, orders and names (module docstring).
STRUCTURE_SEED = 0

#: Sessions the serving mix keeps live, round-robin, from one client thread.
LIVE_SESSIONS = 8

#: The serving mix's interaction modes, cycled per session:
#: ``(mode, strategy, k, labels answered per batch)``.
SERVE_MODES = (
    ("guided", "lookahead-entropy", None, None),
    ("guided", "local-most-specific", None, None),
    ("top-k", None, 5, None),
    ("manual-with-pruning", None, None, 5),
)

#: The serving mix's tables: Figure 1 (twice, with goals Q1 and Q2), Set-game
#: pairs of a 12-card deck, and two small synthetic products.
SERVE_FAMILIES = ("figure1-q1", "figure1-q2", "setgame", "synthetic-30x30-d4", "synthetic-20x20-d3")


@dataclass(frozen=True)
class Shape:
    """A synthetic two-relation product: attributes, tuples and domain per relation."""

    attributes: int
    tuples: int
    domain: int


GUIDED_SHAPES = {
    # 2 x 3 attributes x 1000 tuples, domain 30: 10^6 candidates, 9 atoms.
    "guided-large": {"full": Shape(3, 1000, 30), "tiny": Shape(3, 60, 30)},
    # 2 x 6 attributes x 40 tuples, domain 3: 1600 candidates, 36 atoms.
    "guided-wide": {"full": Shape(6, 40, 3), "tiny": Shape(6, 10, 3)},
}

#: Goals per pass of a guided workload (a pass runs them one after another).
#: A flagship session takes about 6 s, so its pass is one goal and a run
#: holds several passes.
GUIDED_GOALS = {
    "guided-large": {"full": 1, "tiny": 1},
    "guided-wide": {"full": 12, "tiny": 3},
}

#: Sessions per pass of the serving mix (a multiple of 4 modes x 5 tables).
SERVE_SESSIONS = {"full": 100, "tiny": 20}

SERVE_SHAPES = {
    "synthetic-30x30-d4": Shape(3, 30, 4),
    "synthetic-20x20-d3": Shape(3, 20, 3),
}


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def _relabeled(relation: Relation, relabel: dict) -> Relation:
    rows = [tuple(relabel[v] for v in row) for row in relation.rows]
    names = [attribute.short_name for attribute in relation.schema.attributes]
    return Relation.build(relation.name, names, rows)


def synthetic_relations(shape: Shape, seed: int) -> list[Relation]:
    """The structure-seeded synthetic relations, values relabeled by ``seed``."""
    config = SyntheticConfig(
        num_relations=2,
        attributes_per_relation=shape.attributes,
        tuples_per_relation=shape.tuples,
        domain_size=shape.domain,
        seed=STRUCTURE_SEED,
    )
    rng = random.Random(seed)
    values = list(range(shape.domain))
    rng.shuffle(values)
    relabel = dict(enumerate(values))
    return [_relabeled(relation, relabel) for relation in generate_instance(config).relations]


def family_relations(family: str, seed: int) -> list[Relation]:
    """The base relations of one serving-mix table (synthetic values relabeled by ``seed``)."""
    if family == "figure1":
        return list(travel_instance().relations)
    if family == "setgame":
        cards = card_deck(12, seed=STRUCTURE_SEED)
        return [cards_relation(name, cards) for name in ("Left", "Right")]
    return synthetic_relations(SERVE_SHAPES[family], seed)


def product_table(name: str, relations: list[Relation]) -> CandidateTable:
    """The (factorized, never materialised) cross product of the relations."""
    return CandidateTable.cross_product(DatabaseInstance(name, relations), name=name)


def cross_atoms(relations: list[Relation]) -> list[tuple[str, str]]:
    """Every cross-relation attribute pair: the atom universe of the product."""
    left, right = (
        [f"{rel.name}.{attr.short_name}" for attr in rel.schema.attributes] for rel in relations
    )
    return [(a, b) for a in left for b in right]


class QueryChecker:
    """Evaluates join queries over the base relations of a product table.

    A query selects the product tuple ``(r1, r2)`` when every atom holds;
    each atom is one broadcast comparison of interned column codes, so the
    whole selection of a 10^6-candidate table is a 1000 x 1000 boolean array
    and no tuple id is materialised.  ``None`` never equals anything, as in
    the library's value coding.
    """

    def __init__(self, relations: list[Relation]) -> None:
        codes: dict[object, int] = {}
        nulls = 0
        self.shape = tuple(len(rel.rows) for rel in relations)
        self.columns: dict[str, np.ndarray] = {}
        for factor, rel in enumerate(relations):
            axis = [1] * len(relations)
            axis[factor] = -1
            for position, attr in enumerate(rel.schema.attributes):
                column = []
                for row in rel.rows:
                    value = row[position]
                    if value is None:
                        nulls += 1
                        column.append(-nulls)
                    else:
                        column.append(codes.setdefault(value, len(codes)))
                self.columns[f"{rel.name}.{attr.short_name}"] = np.array(column).reshape(axis)

    def selection(self, query: JoinQuery) -> np.ndarray:
        selected = np.ones(self.shape, dtype=bool)
        for atom in query:
            selected &= self.columns[atom.left] == self.columns[atom.right]
        return selected

    def count(self, query: JoinQuery) -> int:
        return int(self.selection(query).sum())

    def same_selection(self, goal: JoinQuery, inferred: JoinQuery) -> bool:
        """Whether the two queries select exactly the same candidate tuples."""
        return bool(np.array_equal(self.selection(goal), self.selection(inferred)))


@dataclass
class TableSet:
    """The tables of one setup, with what the driver and the check need."""

    tables: dict[str, CandidateTable]
    relations: dict[str, list[Relation]]
    fingerprints: dict[str, str] = field(default_factory=dict)
    checkers: dict[str, QueryChecker] = field(default_factory=dict)
    positions: dict[str, dict[str, int]] = field(default_factory=dict)

    def prepare_checks(self) -> None:
        """Build the output checkers and attribute positions (outside any timing)."""
        for key, table in self.tables.items():
            self.checkers[key] = QueryChecker(self.relations[key])
            self.positions[key] = {name: pos for pos, name in enumerate(table.attribute_names)}


def build_tables(workload: str, size: str, seed: int) -> TableSet:
    """Build the workload's tables from the seed."""
    if workload in GUIDED_SHAPES:
        shape = GUIDED_SHAPES[workload][size]
        relations = {workload: synthetic_relations(shape, seed)}
    else:
        relations = {
            family: family_relations(family, seed)
            for family in ("figure1", "setgame", *SERVE_SHAPES)
        }
    tables = {key: product_table(key, rels) for key, rels in relations.items()}
    return TableSet(tables, relations)


# --------------------------------------------------------------------------- #
# Session plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SessionSpec:
    """One planned session: its table, goal, kind, and whether it is resumed."""

    index: int
    table: str
    goal: JoinQuery
    mode: str
    strategy: str | None
    k: int | None
    batch: int | None
    resume: bool
    session_id: str
    pick_seed: int


def _session_id(rng: random.Random) -> str:
    return uuid.UUID(int=rng.getrandbits(128)).hex


def guided_pool(workload: str, size: str) -> list[JoinQuery]:
    """The fixed goal pool of a guided workload: 2-atom goals selecting some, not all, tuples."""
    relations = synthetic_relations(GUIDED_SHAPES[workload][size], STRUCTURE_SEED)
    checker = QueryChecker(relations)
    total = int(np.prod(checker.shape))
    pairs = list(itertools.combinations(cross_atoms(relations), 2))
    random.Random(STRUCTURE_SEED).shuffle(pairs)
    pool = []
    for pair in pairs:
        goal = JoinQuery(pair)
        if 0 < checker.count(goal) < total:
            pool.append(goal)
        if len(pool) == GUIDED_GOALS[workload][size]:
            return pool
    raise RuntimeError(f"{workload}: too few non-trivial 2-atom goals")


def guided_plan(workload: str, size: str, seed: int) -> list[SessionSpec]:
    """Guided lookahead-entropy sessions over the pool, in seeded order.

    A session's index is its goal's place in the pool, so the trace digest
    does not depend on the order.
    """
    rng = random.Random(seed)
    goals = list(enumerate(guided_pool(workload, size)))
    rng.shuffle(goals)
    return [
        SessionSpec(
            index, workload, goal, "guided", "lookahead-entropy", None, None, False,
            _session_id(rng), rng.getrandbits(32),
        )
        for index, goal in goals
    ]


def serve_plan(tables: TableSet, size: str, seed: int) -> list[SessionSpec]:
    """The serving mix: modes and tables cycled, goals fixed, order and ids from the seed."""
    structure = random.Random(STRUCTURE_SEED)
    atoms = {key: cross_atoms(rels) for key, rels in tables.relations.items()}
    specs = []
    for index in range(SERVE_SESSIONS[size]):
        family = SERVE_FAMILIES[index % len(SERVE_FAMILIES)]
        mode, strategy, k, batch = SERVE_MODES[index % len(SERVE_MODES)]
        if family == "figure1-q1":
            table, goal = "figure1", qualified_query_q1()
        elif family == "figure1-q2":
            table, goal = "figure1", qualified_query_q2()
        elif family == "setgame":
            table, goal = family, same_feature_query(*structure.sample(FEATURES, 2))
        else:
            table, goal = family, JoinQuery(structure.sample(atoms[family], 2))
        specs.append((index, table, goal, mode, strategy, k, batch, structure.getrandbits(32)))
    rng = random.Random(seed)
    rng.shuffle(specs)
    return [
        SessionSpec(
            index, table, goal, mode, strategy, k, batch, True, _session_id(rng), pick_seed
        )
        for index, table, goal, mode, strategy, k, batch, pick_seed in specs
    ]


# --------------------------------------------------------------------------- #
# Clients: the same driver over the in-process service, the cluster, or a
# replay of the worker's command loop
# --------------------------------------------------------------------------- #
class ServiceClient:
    """Times each call on a ``SessionService`` or ``ClusterSessionService``."""

    def __init__(self, service, tracer=None) -> None:
        self.service = service
        self.tracer = tracer

    def call(self, op: str, method: str, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = op
        started = perf_counter()
        result = getattr(self.service, method)(*args, **kwargs)
        return result, perf_counter() - started


class ReplayClient:
    """Runs each call the way a cluster worker does, in this process.

    A worker answers every command with ``execute_command`` on a
    ``SessionService`` whose document sink keeps the write-through
    documents; this client does the same, so the traced run sees the
    worker-side layers.  Only ``execute_command`` is timed; decoding the
    reply stands in for the supervisor and is not.
    """

    def __init__(self, service, documents: dict, tracer=None) -> None:
        self.service = service
        self.documents = documents
        self.tracer = tracer

    def call(self, op: str, method: str, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = op
        request = self._request(method, *args, **kwargs)
        self.documents.clear()
        started = perf_counter()
        result = wire.execute_command(self.service, request)
        elapsed = perf_counter() - started
        if method in ("create", "resume", "close"):
            return SessionDescriptor.from_dict(result), elapsed
        if method in ("next_question", "answer"):
            return event_from_wire(result), elapsed
        if method == "answer_many":
            return [event_from_wire(item) for item in result], elapsed
        return result, elapsed

    @staticmethod
    def _request(method: str, *args, **kwargs) -> dict:
        if method == "create":
            (fingerprint,) = args
            return {"cmd": "create", "fingerprint": fingerprint, "strict": True, **kwargs}
        if method == "resume":
            (document,) = args
            return {
                "cmd": "resume",
                "document": document,
                "fingerprint": document["table_fingerprint"],
                "session_id": kwargs["session_id"],
            }
        if method == "answer":
            session_id, label = args
            return {"cmd": "answer", "session_id": session_id, "label": label}
        if method == "answer_many":
            session_id, answers = args
            return {"cmd": "answer_many", "session_id": session_id, "answers": answers}
        (session_id,) = args
        return {"cmd": method, "session_id": session_id}


# --------------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------------- #
@dataclass
class Samples:
    """Per-call and per-session measurements of one pass."""

    first_question: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    save_resume: list[float] = field(default_factory=list)
    sessions: list[float] = field(default_factory=list)
    call_seconds: float = 0.0
    wall_seconds: float = 0.0
    labels: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)


@dataclass
class _Live:
    spec: SessionSpec
    event: object = None
    labels: int = 0
    seconds: float = 0.0
    resumed: bool = False
    trace: list = field(default_factory=list)


class Driver:
    """Runs planned sessions in a closed loop and records their timings.

    Up to ``live`` sessions are open at once and advanced round-robin, one
    step each; the simulated user answers from the session's goal query,
    outside the timed calls.
    """

    def __init__(self, client, tables: TableSet, plan: list[SessionSpec], live: int) -> None:
        self.client = client
        self.tables = tables
        self.plan = plan
        self.live = live

    def _call(self, samples: Samples, session: _Live, op: str, method: str, *args, **kwargs):
        tracer = self.client.tracer
        if tracer is not None:
            tracer.session = session.spec.index
        result, seconds = self.client.call(op, method, *args, **kwargs)
        samples.call_seconds += seconds
        return result, seconds

    def _answer(self, spec: SessionSpec, tuple_id: int) -> bool:
        table = self.tables.tables[spec.table]
        return spec.goal.selects_row(table.row(tuple_id), self.tables.positions[spec.table])

    def _start(self, samples: Samples, spec: SessionSpec) -> _Live:
        session = _Live(spec)
        _, created = self._call(
            samples, session, "create", "create",
            self.tables.fingerprints[spec.table],
            mode=spec.mode, strategy=spec.strategy, k=spec.k, session_id=spec.session_id,
        )
        session.event, asked = self._call(
            samples, session, "create", "next_question", spec.session_id
        )
        samples.first_question.append(created + asked)
        session.seconds += created + asked
        return session

    def _step(self, samples: Samples, session: _Live) -> None:
        spec, event = session.spec, session.event
        sid = spec.session_id
        if isinstance(event, QuestionAsked):
            label = self._answer(spec, event.tuple_id)
            applied, answered = self._call(samples, session, "step", "answer", sid, label)
            if applied.tuple_id != event.tuple_id:
                raise RuntimeError(
                    f"answered tuple {applied.tuple_id}, was asked about {event.tuple_id}"
                )
            applied = [applied]
        elif isinstance(event, BatchQuestionsAsked):
            ids = list(event.tuple_ids)
            if spec.batch is not None:
                picker = random.Random(spec.pick_seed + session.labels)
                ids = sorted(picker.sample(ids, min(spec.batch, len(ids))))
            answers = [[tid, self._answer(spec, tid)] for tid in ids]
            applied, answered = self._call(samples, session, "step", "answer_many", sid, answers)
        else:
            raise RuntimeError(f"unexpected event {type(event).__name__}")
        if not applied:
            raise RuntimeError("a step applied no label")
        session.trace.extend((item.tuple_id, item.label.value) for item in applied)
        session.labels += len(applied)
        session.event, asked = self._call(samples, session, "step", "next_question", sid)
        samples.steps.append(answered + asked)
        session.seconds += answered + asked
        if (
            spec.resume
            and not session.resumed
            and session.labels >= 2
            and not isinstance(session.event, Converged)
        ):
            document, saved = self._call(samples, session, "save_resume", "save", sid)
            _, closed = self._call(samples, session, "save_resume", "close", sid)
            _, resumed = self._call(
                samples, session, "save_resume", "resume", document, session_id=sid
            )
            samples.save_resume.append(saved + closed + resumed)
            session.seconds += saved + closed + resumed
            session.resumed = True

    def _finish(self, samples: Samples, session: _Live) -> bool:
        spec = session.spec
        inferred = session.event.as_join_query()
        self._call(samples, session, "close", "close", spec.session_id)
        samples.sessions.append(session.seconds)
        samples.labels += session.labels
        return self.tables.checkers[spec.table].same_selection(spec.goal, inferred)

    def run_pass(self) -> Samples:
        """Run every planned session once; the pass's samples and trace digest."""
        samples = Samples()
        started = perf_counter()
        pending = deque(self.plan)
        live: deque[_Live] = deque()
        traces: dict[int, list] = {}
        while pending or live:
            while pending and len(live) < self.live:
                spec = pending.popleft()
                samples.attempted += 1
                try:
                    live.append(self._start(samples, spec))
                except Exception as exc:  # a failed session is counted, not fatal
                    self._fail(samples, spec, exc)
            if not live:
                continue
            session = live.popleft()
            try:
                if isinstance(session.event, Converged):
                    traces[session.spec.index] = session.trace
                    if not self._finish(samples, session):
                        samples.failed += 1
                        samples.errors.append(
                            f"session {session.spec.index}: inferred query differs from the goal"
                        )
                    continue
                self._step(samples, session)
                live.append(session)
            except Exception as exc:
                self._fail(samples, session.spec, exc)
        samples.wall_seconds = perf_counter() - started
        samples.digest = hashlib.sha256(repr(sorted(traces.items())).encode()).hexdigest()[:16]
        return samples

    def _fail(self, samples: Samples, spec: SessionSpec, exc: Exception) -> None:
        samples.failed += 1
        samples.errors.append(f"session {spec.index}: {type(exc).__name__}: {exc}")
        # The session may never have opened, or be gone already.
        with contextlib.suppress(Exception):
            self.client.call("close", "close", spec.session_id)
