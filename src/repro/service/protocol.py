"""The sans-IO session protocol: typed events with a stable JSON wire form.

The interactive loop of the paper's Figure 2 is, stripped of I/O, a
conversation made of a handful of message kinds: the system proposes a tuple
(or a batch of tuples) to label, the user applies a label, and eventually the
labels identify a unique query.  This module gives those messages concrete,
typed shapes — the *events* emitted by
:class:`~repro.service.stepper.InferenceSession` — plus a stable JSON wire
form so any frontend (HTTP, websocket, crowd platform, test harness) can speak
the protocol without importing the inference core.

Events
------
:class:`QuestionAsked`
    The system proposes one tuple to label (guided mode).  Carries the row
    values so a frontend can render the membership question directly.
:class:`BatchQuestionsAsked`
    The system proposes a batch of tuples (top-k mode) or lists the tuples the
    user may label (manual modes).
:class:`LabelApplied`
    One label was recorded and propagated: how many tuples it grayed out and
    how many informative tuples remain.
:class:`Converged`
    The labels identify a unique query (up to instance-equivalence); carries
    the inferred query both human-readably and as attribute pairs.

Wire form
---------
``event_to_wire`` / ``event_from_wire`` convert events to and from plain JSON
objects tagged with a ``"type"`` field; ``encode_event`` / ``decode_event`` do
the same for JSON text.  The wire form is covered by round-trip tests and is
the contract the HTTP demo (``examples/serve_sessions.py``) exposes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass

from ..core.examples import Label
from ..core.queries import JoinQuery
from ..exceptions import ReproError


class ProtocolError(ReproError):
    """A wire payload does not encode a valid protocol event or table."""


class InteractionMode(enum.Enum):
    """The four interaction types of the demonstration scenario (Figure 3)."""

    MANUAL = "manual"
    MANUAL_WITH_PRUNING = "manual-with-pruning"
    TOP_K = "top-k"
    GUIDED = "guided"


@dataclass(frozen=True)
class QuestionAsked:
    """The system proposes one tuple to label (the membership query).

    ``step`` is the 1-based step the answer will have; ``attributes`` and
    ``row`` let a frontend render the question without access to the table.
    """

    step: int
    tuple_id: int
    attributes: tuple[str, ...]
    row: tuple[object, ...]

    type = "question"


@dataclass(frozen=True)
class BatchQuestionsAsked:
    """The system proposes a batch of tuples to label, best first.

    Emitted by top-k sessions (``k`` is the requested batch size) and by
    manual sessions (``k`` is ``None``: the batch is simply the set of tuples
    the user may label).
    """

    step: int
    tuple_ids: tuple[int, ...]
    k: int | None

    type = "questions"


@dataclass(frozen=True)
class LabelApplied:
    """One label was recorded and propagated."""

    step: int
    tuple_id: int
    label: Label
    pruned: int
    informative_remaining: int

    type = "label_applied"


@dataclass(frozen=True)
class Converged:
    """The labels given so far identify a unique query.

    ``step`` is the number of labels applied in the session; ``atoms`` is the
    canonical inferred query as normalised attribute pairs and ``query`` its
    human-readable rendering.
    """

    step: int
    query: str
    atoms: tuple[tuple[str, str], ...]

    type = "converged"

    def as_join_query(self) -> JoinQuery:
        """The inferred query as a :class:`~repro.core.queries.JoinQuery`."""
        return JoinQuery(self.atoms)


Event = QuestionAsked | BatchQuestionsAsked | LabelApplied | Converged

_EVENT_CLASSES: dict[str, type] = {
    cls.type: cls
    for cls in (QuestionAsked, BatchQuestionsAsked, LabelApplied, Converged)
}


def query_atoms(query: JoinQuery) -> tuple[tuple[str, str], ...]:
    """A query's atoms as sorted ``(left, right)`` attribute pairs."""
    return tuple(atom.attributes for atom in query)


def converged_event(step: int, query: JoinQuery) -> Converged:
    """Build a :class:`Converged` event from an inferred query."""
    return Converged(step=step, query=query.describe(), atoms=query_atoms(query))


def event_to_wire(event: Event) -> dict[str, object]:
    """The JSON-serialisable wire form of an event (tagged with ``"type"``)."""
    payload = asdict(event)
    payload["type"] = event.type
    if isinstance(event, LabelApplied):
        payload["label"] = event.label.value
    return payload


def event_from_wire(payload: dict[str, object]) -> Event:
    """Rebuild a typed event from its wire form.

    Raises :class:`ProtocolError` on unknown tags or malformed fields.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("a protocol event must be a JSON object")
    tag = payload.get("type")
    cls = _EVENT_CLASSES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        known = ", ".join(sorted(_EVENT_CLASSES))
        raise ProtocolError(f"unknown event type {tag!r}; known types: {known}")
    fields = {key: value for key, value in payload.items() if key != "type"}
    try:
        if cls is QuestionAsked:
            fields["attributes"] = tuple(fields["attributes"])
            fields["row"] = tuple(fields["row"])
        elif cls is BatchQuestionsAsked:
            fields["tuple_ids"] = tuple(int(i) for i in fields["tuple_ids"])
        elif cls is LabelApplied:
            fields["label"] = Label.from_value(fields["label"])
        elif cls is Converged:
            fields["atoms"] = tuple(
                (str(left), str(right)) for left, right in fields["atoms"]
            )
        return cls(**fields)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed {tag!r} event: {exc}") from exc


def encode_event(event: Event) -> str:
    """The event as one line of JSON text."""
    return json.dumps(event_to_wire(event), sort_keys=True)


def decode_event(text: str) -> Event:
    """Parse one line of JSON text back into a typed event."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"event is not valid JSON: {exc}") from exc
    return event_from_wire(payload)
