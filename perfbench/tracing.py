"""Span recording for the traced benchmark run, from outside the library.

The traced run wraps the public calls of each layer (module attributes and
class methods of ``repro``) with a recorder and restores them afterwards;
nothing under ``src/`` knows it is being measured.  A span is
``[key, start, end, parent, session, op]``: ``key`` is the per-layer metric
it feeds (``"state.add_label"``), ``parent`` the index of the enclosing
span (-1 for a top-level call), ``session`` and ``op`` what the driver was
doing when the call was made.  Spans stay in memory and are written out
once, at the end of the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of one call add up to the call.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Metric-key prefixes that belong to another layer than their name says.
_LAYER_OF_PREFIX = {"propagation": "state"}

#: The layers, bottom-up, in the order the per-layer table prints them.
LAYERS = (
    "relational",
    "equality_types",
    "state",
    "strategies",
    "kernels",
    "stepper",
    "service",
    "persistence",
    "wire",
    "transport",
    "cluster",
)

_MISSING = object()


def layer_of(key: str) -> str:
    """The layer a span key belongs to (``"propagation.ids"`` -> ``"state"``)."""
    prefix = key.split(".", 1)[0]
    return _LAYER_OF_PREFIX.get(prefix, prefix)


class Tracer:
    """Records spans of wrapped calls made on the thread that created it.

    Calls from other threads (the cluster's heartbeat) run unrecorded, so a
    span's parent is always the call that caused it.  ``samples`` collects
    the raw values behind the count metrics (``"cells"``, ``"frames"``, ...);
    hooks append references only, and sizes are computed after the run so
    that no hook work lands inside a measured span.  Frames and documents
    are kept for the first ``KEPT_OBJECTS`` of each only: holding every one
    would grow the heap the garbage collector scans during the traced run.
    """

    KEPT_OBJECTS = 2000

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.session: object = None
        self.op: str | None = None
        self.enabled = False
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def keep(self, name: str, item: object) -> None:
        """Keep ``item`` for a size metric, up to ``KEPT_OBJECTS`` of them."""
        kept = self.samples[name]
        if len(kept) < self.KEPT_OBJECTS:
            kept.append(item)

    def _open(self, key: str) -> list:
        stack = self._stack
        record = [key, 0.0, 0.0, stack[-1] if stack else -1, self.session, self.op]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, key: str):
        """A span around the benchmark's own code (table building)."""
        if not self.enabled:
            yield
            return
        record = self._open(key)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        key: str,
        after: Callable[[Tracer, tuple, object], None] | None = None,
        on_error: Callable[[Tracer, BaseException], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by :meth:`uninstall`)."""
        original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else original
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._owner:
                return original(*args, **kwargs)
            record = tracer._open(key)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                record[1], record[2] = start, perf_counter()
                tracer._stack.pop()
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            record[1], record[2] = start, perf_counter()
            tracer._stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        self.enabled = False
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        """Write the recorded spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {**header, "fields": ["key", "start", "end", "parent", "session", "op"]}
        document["spans"] = self.spans
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


@contextmanager
def tracing(tracer: Tracer, strategy_names: tuple[str, ...]):
    """Record spans while the block runs: wrappers installed, then removed."""
    instrument(tracer, strategy_names)
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _covered(spans: list[list]) -> list[float]:
    """Per span, the seconds its child spans cover."""
    covered = [0.0] * len(spans)
    for _key, start, end, parent, _session, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def self_times(spans: list[list], window: range, op: str | None = None) -> dict[str, float]:
    """Seconds of self time per span key, over the spans indexed by ``window``.

    Parent indices are positions in the full list, so the list is passed
    whole and ``window`` selects a phase of it; ``op`` keeps only the spans
    of one driver op.
    """
    covered = _covered(spans)
    seconds: dict[str, float] = defaultdict(float)
    for index in window:
        key, start, end, _parent, _session, span_op = spans[index]
        if op is None or span_op == op:
            seconds[key] += (end - start) - covered[index]
    return seconds


def layer_seconds(spans: list[list], window: range, op: str | None = None) -> dict[str, float]:
    """Self seconds per layer (see :func:`self_times`)."""
    totals: dict[str, float] = defaultdict(float)
    for key, value in self_times(spans, window, op).items():
        totals[layer_of(key)] += value
    return totals


def below_entry_seconds(spans: list[list], window: range) -> float:
    """Seconds of the top-level spans in ``window`` that their child spans cover.

    A top-level span is the entry call the driver made (``SessionService``,
    ``ClusterSessionService`` or the worker's ``execute_command``).  Its own
    self time is where a layer without wrapped calls would hide, so coverage
    counts only the time the layers below the entry call account for.
    """
    covered = _covered(spans)
    return sum(covered[i] for i in window if spans[i][3] < 0)


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def instrument(tracer: Tracer, strategy_names: tuple[str, ...]) -> None:
    """Wrap the public calls of every layer (see the README's layer table)."""
    from repro.core import kernels, propagation
    from repro.core import state as state_module
    from repro.core.equality_types import EqualityTypeIndex
    from repro.core.state import InferenceState
    from repro.core.strategies.registry import create_strategy
    from repro.service import cluster as cluster_module
    from repro.service import wire as wire_module
    from repro.service.cluster import ClusterSessionService
    from repro.service.service import SessionService
    from repro.service.stepper import InferenceSession
    from repro.service.transport import FramedConnection
    from repro.sessions import persistence

    # relational: the fingerprint paid by register_table (the cluster
    # imported the function by name, so both bindings are wrapped).
    tracer.wrap(persistence, "table_fingerprint", "relational.fingerprint")
    tracer.wrap(cluster_module, "table_fingerprint", "relational.fingerprint")

    # equality_types: the type histogram built for every new state.
    def index_built(tracer: Tracer, args: tuple, _result: object) -> None:
        index = args[0]
        table = index.table
        if table.factorization() is not None:
            pairs = index.universe.attribute_positions
            used = sorted({position for pair in pairs for position in pair})
            combos = 1
            for factor in table.factor_grouping(used).group_counts():
                combos *= len(factor)
        else:
            combos = len(table)
        tracer.samples["combos"].append(combos)
        tracer.samples["types_per_combo"].append(len(index.distinct_masks) / max(combos, 1))

    tracer.wrap(EqualityTypeIndex, "__init__", "equality_types.index", after=index_built)

    # state: construction, label propagation and the id materialisation
    # behind it (imported by name into both modules that call it).
    tracer.wrap(InferenceState, "__init__", "state.init")
    tracer.wrap(
        InferenceState,
        "add_label",
        "state.add_label",
        after=lambda t, _args, result: t.samples["pruned"].append(result.pruned_count),
    )
    tracer.wrap(state_module, "unlabeled_ids_of_types", "propagation.ids")
    tracer.wrap(propagation, "unlabeled_ids_of_types", "propagation.ids")

    # strategies: the choice, the restricted-type grouping and the tie-break.
    wrapped: set[type] = set()
    for name in strategy_names:
        owner = _defining_class(type(create_strategy(name)), "choose")
        if owner not in wrapped:
            wrapped.add(owner)
            tracer.wrap(owner, "choose", "strategies.choose")
    tracer.wrap(InferenceState, "informative_restricted_types", "strategies.groups")
    tracer.wrap(InferenceState, "first_informative_id", "strategies.tiebreak")

    # kernels: the lookahead prune-count kernel, K candidates x I types.
    tracer.wrap(InferenceState, "prune_counts_for_restricted", "kernels.prune")
    tracer.wrap(
        kernels,
        "prune_counts_batch",
        "kernels.prune",
        after=lambda t, args, _result: t.samples["cells"].append(len(args[0]) * len(args[2])),
    )

    # stepper and service: what is left of their calls is their self time.
    for method in ("__init__", "next_question", "submit", "submit_many"):
        tracer.wrap(InferenceSession, method, "stepper.self")
    service_calls = (
        "register_table",
        "create",
        "next_question",
        "answer",
        "answer_many",
        "save",
        "close",
        "resume",
    )
    for method in service_calls:
        tracer.wrap(SessionService, method, "service.self")

    # persistence: session documents, written through on every change.
    tracer.wrap(
        persistence,
        "serialize_state",
        "persistence.serialize",
        after=lambda t, _args, result: t.keep("documents", result),
    )
    tracer.wrap(persistence, "deserialize_state", "persistence.deserialize")

    # wire: the worker-side command dispatch and event encoding, and the
    # supervisor-side event decoding.
    tracer.wrap(wire_module, "execute_command", "wire.encode")
    tracer.wrap(wire_module, "event_to_wire", "wire.encode")
    tracer.wrap(cluster_module, "event_from_wire", "wire.decode")

    # transport: supervisor-side frames; a failed send/recv is what makes
    # the cluster recover and retry.
    def count_retry(t: Tracer, _exc: BaseException) -> None:
        t.samples["retries"].append(1)

    tracer.wrap(
        FramedConnection,
        "send",
        "transport.send",
        after=lambda t, args, _result: t.keep("frames", args[1]),
        on_error=count_retry,
    )
    tracer.wrap(
        FramedConnection,
        "recv",
        "transport.reply_wait",
        after=lambda t, _args, result: t.keep("frames", result),
        on_error=count_retry,
    )

    # cluster: each supervised call minus the reply wait is its overhead.
    for method in service_calls:
        tracer.wrap(ClusterSessionService, method, "cluster.overhead")
