"""The cluster's JSON wire vocabulary, shared by supervisor and worker.

Both ends of a cluster connection — :class:`ClusterSessionService` in the
parent and the worker loop in :mod:`repro.service.worker` — need the same
command/reply forms, the same table codec, and the same error taxonomy.
They live here so neither side imports the other: commands in
(``{"cmd": …}``), ``{"status": "ok"/"error", …}`` replies out, protocol
events in their existing wire form
(:func:`~repro.service.protocol.event_to_wire`), descriptors as their
``as_dict`` form, persistence documents as-is.

:func:`execute_command` is the worker-side dispatcher: one wire command
applied to a plain :class:`~repro.service.service.SessionService`.  It is
transport-agnostic — the socket loop in :mod:`repro.service.worker` calls
it, and tests can call it directly against an in-memory service.
"""

from __future__ import annotations

import datetime
import os

from ..exceptions import (
    InconsistentLabelError,
    OracleError,
    ReproError,
    StrategyError,
)
from ..relational.candidate import CandidateAttribute, CandidateTable
from ..relational.types import DataType
from ..sessions.persistence import SessionPersistenceError
from .protocol import ProtocolError, event_from_wire, event_to_wire
from .service import SessionService, SessionServiceError


class ClusterServiceError(SessionServiceError):
    """A cluster-level failure: a dead worker, a closed cluster, or a value
    that cannot cross the process boundary.

    Subclasses :class:`~repro.service.service.SessionServiceError` so every
    existing consumer of the service facade (the asyncio layer, the HTTP
    example) treats transport failures like any other service error instead
    of crashing on an unknown exception type.
    """


class WorkerUnavailableError(ClusterServiceError):
    """A worker died and the supervisor could not (or may not) bring it back.

    Raised *after* recovery was attempted and failed — or skipped because
    ``respawn=False`` — never for a blip the supervision layer absorbed.
    Carries :attr:`worker_index` so operators know which shard is down; the
    message names the worker too.  Subclasses :class:`ClusterServiceError`
    (and hence ``SessionServiceError``): when a worker is truly gone, its
    sessions are gone, and reaping their streams/slots — as the asyncio
    facade does for service errors — is the correct reaction.
    """

    def __init__(self, message: str, worker_index: int | None = None) -> None:
        super().__init__(message)
        self.worker_index = worker_index


class ClusterWorkerError(ReproError):
    """A worker raised an exception type the wire protocol does not carry.

    Deliberately *not* a :class:`SessionServiceError`: an unexpected
    worker-side bug (say, an ``AttributeError``) does not mean the session
    is gone, so the asyncio facade must not reap its streams or
    backpressure slot over it.
    """


# --------------------------------------------------------------------------- #
# The JSON wire forms: cells, tables, errors
# --------------------------------------------------------------------------- #
_JSON_SCALARS = (str, int, float, bool, type(None))


def _cell_to_wire(value: object) -> object:
    """One table cell as JSON (dates tagged, scalars as-is)."""
    if isinstance(value, datetime.datetime):  # before date: datetime is a date
        return {"$datetime": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, _JSON_SCALARS):
        return value
    raise ClusterServiceError(
        f"table cell {value!r} of type {type(value).__name__} cannot cross the "
        "process boundary; cluster tables need JSON-representable cells"
    )


#: Tagged cell forms :func:`_cell_to_wire` emits, by tag.
_DATE_TAGS = {
    "$datetime": datetime.datetime.fromisoformat,
    "$date": datetime.date.fromisoformat,
}


def _cell_from_wire(value: object) -> object:
    """One wire cell back as a value: a JSON scalar or a tagged date."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, dict) and len(value) == 1:
        ((tag, text),) = value.items()
        parse = _DATE_TAGS.get(tag)
        if parse is not None and isinstance(text, str):
            try:
                return parse(text)
            except ValueError:
                pass
    raise ProtocolError(f"table cell {value!r} is neither a JSON scalar nor a tagged date")


def table_to_wire(table: CandidateTable) -> dict[str, object]:
    """A candidate table as a JSON object (schema, provenance, and rows).

    The form preserves everything the inference core reads — attribute
    names, data types, source relations, row values — so the rebuilt table
    has the identical atom universe and the identical content fingerprint.
    Raises :class:`ClusterServiceError` for cell values JSON cannot carry.
    """
    return {
        "name": table.name,
        "attributes": [
            {
                "name": attribute.name,
                "data_type": attribute.data_type.value,
                "source_relation": attribute.source_relation,
            }
            for attribute in table.attributes
        ],
        "rows": [[_cell_to_wire(value) for value in row] for row in table],
    }


def _attribute_from_wire(spec: object) -> CandidateAttribute:
    if not isinstance(spec, dict):
        raise ProtocolError(f"table attribute {spec!r} is not a JSON object")
    name = spec.get("name")
    source = spec.get("source_relation")
    if not isinstance(name, str) or not (source is None or isinstance(source, str)):
        raise ProtocolError(f"table attribute {spec!r} needs a string name and source")
    try:
        data_type = DataType(spec.get("data_type"))
    except ValueError:
        raise ProtocolError(f"unknown data type in table attribute {spec!r}") from None
    return CandidateAttribute(name=name, data_type=data_type, source_relation=source)


def table_from_wire(payload: object) -> CandidateTable:
    """Rebuild a candidate table from its :func:`table_to_wire` form.

    Raises :class:`ProtocolError` for a payload that is not that form, and
    :class:`~repro.exceptions.CandidateTableError` for one that is but names
    no valid table (no attributes, duplicate names, a row of the wrong
    arity).
    """
    if not isinstance(payload, dict):
        raise ProtocolError("a wire table must be a JSON object")
    name, attributes, rows = (payload.get(key) for key in ("name", "attributes", "rows"))
    if not (isinstance(name, str) and isinstance(attributes, list) and isinstance(rows, list)):
        raise ProtocolError(
            "a wire table needs a string 'name' and list 'attributes' and 'rows'"
        )
    if not all(isinstance(row, list) for row in rows):
        raise ProtocolError("every row of a wire table must be a JSON list")
    return CandidateTable(
        [_attribute_from_wire(spec) for spec in attributes],
        [[_cell_from_wire(value) for value in row] for row in rows],
        name=name,
    )


#: Exception types a worker may raise that the parent re-raises as-is.
_ERROR_KINDS: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SessionServiceError,
        ClusterServiceError,
        StrategyError,
        InconsistentLabelError,
        OracleError,
        ProtocolError,
        ReproError,
        SessionPersistenceError,
        ValueError,
        TypeError,
        KeyError,
        IndexError,
    )
}


def rebuild_error(reply: dict[str, object]) -> BaseException:
    """The parent-side exception for a worker's ``{"status": "error"}`` reply."""
    kind = reply.get("kind")
    message = str(reply.get("message", ""))
    cls = _ERROR_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        # Not a ClusterServiceError: an unexpected worker exception does not
        # mean the session is gone, so it must not read as a service error.
        error: BaseException = ClusterWorkerError(f"worker raised {kind}: {message}")
    elif cls is KeyError and message.startswith("'") and message.endswith("'"):
        error = KeyError(message[1:-1])
    else:
        error = cls(message)
    applied = reply.get("applied_events")
    if applied:
        # submit_many attaches the already-applied events to the exception so
        # stream relays stay gap-free; carry them across the boundary too.
        error.applied_events = tuple(event_from_wire(wire) for wire in applied)
    return error


def error_reply(exc: BaseException) -> dict[str, object]:
    """The worker-side ``{"status": "error"}`` form for an exception."""
    reply: dict[str, object] = {
        "status": "error",
        "kind": type(exc).__name__,
        "message": str(exc),
    }
    applied = getattr(exc, "applied_events", None)
    if applied:
        reply["applied_events"] = [event_to_wire(event) for event in applied]
    return reply


# --------------------------------------------------------------------------- #
# The worker-side command dispatcher
# --------------------------------------------------------------------------- #
def _field(request: dict[str, object], key: str) -> object:
    """A field the command needs; its absence makes the command malformed."""
    try:
        return request[key]
    except KeyError:
        raise ProtocolError(
            f"cluster command {request.get('cmd')!r} lacks the field {key!r}"
        ) from None


def execute_command(service: SessionService, request: dict[str, object]) -> object:
    """Apply one wire command to the worker's service; the JSON-able result.

    A request that is not a JSON object, or lacks a field its command needs,
    raises :class:`ProtocolError`.
    """
    if not isinstance(request, dict):
        raise ProtocolError("a cluster command must be a JSON object")
    command = _field(request, "cmd")
    if command == "ping":
        return {"pid": os.getpid()}
    if command == "register_table":
        return service.register_table(table_from_wire(_field(request, "table")))
    if command == "create":
        # A table the worker has not seen yet arrives inline; the service's
        # atomic create registers it together with the session, or not at all.
        table: CandidateTable | str = (
            table_from_wire(_field(request, "table"))
            if "table" in request
            else _field(request, "fingerprint")
        )
        return service.create(
            table,
            mode=_field(request, "mode"),
            strategy=request.get("strategy"),
            k=request.get("k"),
            strict=request.get("strict", True),
            session_id=_field(request, "session_id"),
        ).as_dict()
    if command == "resume":
        table = (
            table_from_wire(_field(request, "table"))
            if "table" in request
            else _field(request, "fingerprint")
        )
        return service.resume(
            _field(request, "document"),
            table=table,
            session_id=_field(request, "session_id"),
        ).as_dict()
    if command == "describe":
        return service.describe(_field(request, "session_id")).as_dict()
    if command == "close":
        return service.close(_field(request, "session_id")).as_dict()
    if command == "next_question":
        return event_to_wire(service.next_question(_field(request, "session_id")))
    if command == "answer":
        return event_to_wire(
            service.answer(
                _field(request, "session_id"),
                _field(request, "label"),
                tuple_id=request.get("tuple_id"),
            )
        )
    if command == "answer_many":
        applied = service.answer_many(
            _field(request, "session_id"),
            [(int(tuple_id), label) for tuple_id, label in _field(request, "answers")],
        )
        return [event_to_wire(event) for event in applied]
    if command == "save":
        return service.save(_field(request, "session_id"))
    if command == "session_ids":
        return service.session_ids()
    raise ClusterServiceError(f"unknown cluster command {command!r}")
