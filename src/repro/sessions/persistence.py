"""Saving and resuming labeling sessions.

A labeling session — especially a crowdsourced one — rarely happens in one
sitting.  This module serialises the labels collected so far (plus enough
metadata to detect that they are being replayed against the same candidate
table) to a JSON document, and restores an
:class:`~repro.core.state.InferenceState` from it, so any session kind can be
resumed exactly where it stopped.

Format history
--------------
* **v1** — labels + table fingerprint + (write-only) convergence summary.
* **v2** — adds an optional ``"session"`` object recording the interaction
  ``mode``, the ``strategy`` name and ``k``, so a multi-session service can
  restore a saved session *as the right kind of session*, not just as raw
  labels.  v1 documents are still read.
* **v3** — adds a top-level ``"strict"`` flag recording whether the session
  rejected contradicting labels.  Before v3 a lenient (``strict=False``)
  session silently resumed as a *strict* one: a contradicting label the
  original session tolerated raised
  :class:`~repro.exceptions.InconsistentLabelError` after resume (and a
  lenient session whose stored labels already contradict each other could
  not be replayed at all).  v1/v2 documents carry no flag and keep the
  historical ``strict=True`` reading.

On load the stored ``canonical_query`` / ``converged`` fields are verified
against the replayed labels (they used to be written but never read); a
mismatch — a corrupted or hand-edited document whose labels no longer
reproduce the recorded outcome — raises :class:`SessionPersistenceError`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.examples import Label
from ..core.state import InferenceState
from ..exceptions import ReproError
from ..relational.candidate import CandidateTable

PathLike = str | Path

#: Format identifier written into every saved session.
FORMAT = "jim-session"
FORMAT_VERSION = 3
#: Versions :func:`deserialize_state` accepts.
SUPPORTED_VERSIONS = (1, 2, 3)


class SessionPersistenceError(ReproError):
    """A saved session cannot be read or does not match the candidate table."""


def table_fingerprint(table: CandidateTable) -> str:
    """A stable fingerprint of a candidate table (attributes + rows).

    Used to refuse resuming a session against a different table, where the
    stored tuple ids would silently mean different tuples.  The same
    fingerprint keys the table registry of
    :class:`~repro.service.service.SessionService`.

    Memoised on the table instance (tables are immutable), so repeated
    ``register_table``/``create``/``save`` calls hash the rows only once —
    and factorized cross products are hashed streaming, without
    materialising their flat rows.
    """
    return table.fingerprint()


def serialize_state(
    state: InferenceState,
    mode: str | None = None,
    strategy: str | None = None,
    k: int | None = None,
) -> dict[str, object]:
    """The JSON-serialisable form of a session's labels and context.

    ``mode`` / ``strategy`` / ``k`` record how the session was being driven
    (v2); when all are omitted the document carries labels only, which any
    session kind can adopt.  The state's own strictness is always recorded
    (v3), so a lenient session resumes lenient.
    """
    payload: dict[str, object] = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "strict": state.strict,
        "table_name": state.table.name,
        "table_fingerprint": table_fingerprint(state.table),
        "num_candidates": len(state.table),
        "atoms": [list(atom.attributes) for atom in state.universe.atoms],
        "labels": {
            str(example.tuple_id): example.label.value for example in state.examples
        },
        "converged": state.is_converged(),
        "canonical_query": [list(atom.attributes) for atom in state.inferred_query()],
    }
    if mode is not None or strategy is not None or k is not None:
        payload["session"] = {"mode": mode, "strategy": strategy, "k": k}
    return payload


def save_session(
    state: InferenceState,
    path: PathLike,
    mode: str | None = None,
    strategy: str | None = None,
    k: int | None = None,
) -> None:
    """Write a session's labels (and optional session metadata) to a JSON file."""
    payload = serialize_state(state, mode=mode, strategy=strategy, k=k)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def require_document(payload: object) -> dict[str, object]:
    """``payload`` itself, or :class:`SessionPersistenceError` if it is no JSON object.

    Session documents arrive from files, clients and the wire; every reader
    checks their shape before looking inside, so a list or a string fails
    with a typed error instead of an ``AttributeError``.
    """
    if not isinstance(payload, dict):
        raise SessionPersistenceError(
            f"malformed session: the document must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def document_strict(payload: dict[str, object]) -> bool:
    """The strictness a saved document records (v3).

    v1/v2 documents carry no flag and read as ``True`` — the historical
    behaviour.  Raises :class:`SessionPersistenceError` for a non-boolean
    value or a document that is not a JSON object.
    """
    strict = require_document(payload).get("strict", True)
    if not isinstance(strict, bool):
        raise SessionPersistenceError(
            f"malformed session: 'strict' must be a boolean, got {strict!r}"
        )
    return strict


def session_options(payload: dict[str, object]) -> dict[str, object]:
    """The session metadata of a saved document: ``mode``/``strategy``/``k``/``strict``.

    v1 documents (and v2 documents saved without metadata) default to a
    guided session with the default strategy, the historical resume
    behaviour; ``strict`` comes from the top-level v3 flag (see
    :func:`document_strict`).
    """
    strict = document_strict(payload)
    raw = payload.get("session")
    if raw is None:
        return {"mode": "guided", "strategy": None, "k": None, "strict": strict}
    if not isinstance(raw, dict):
        raise SessionPersistenceError("malformed session: 'session' must be an object")
    mode = raw.get("mode") or "guided"
    strategy = raw.get("strategy")
    k = raw.get("k")
    if not isinstance(mode, str):
        raise SessionPersistenceError(
            f"malformed session: 'session.mode' must be a string, got {mode!r}"
        )
    if strategy is not None and not isinstance(strategy, str):
        raise SessionPersistenceError(
            f"malformed session: 'session.strategy' must be a strategy name, got {strategy!r}"
        )
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise SessionPersistenceError(
            f"malformed session: 'session.k' must be an integer, got {k!r}"
        )
    return {"mode": mode, "strategy": strategy, "k": k, "strict": strict}


def _verify_outcome(payload: dict[str, object], state: InferenceState) -> None:
    """Check the replayed labels reproduce the stored convergence summary."""
    stored_converged = payload.get("converged")
    if isinstance(stored_converged, bool) and stored_converged != state.is_converged():
        raise SessionPersistenceError(
            "corrupt session: the replayed labels "
            f"{'do' if state.is_converged() else 'do not'} converge but the document "
            f"records converged={stored_converged}"
        )
    stored_query = payload.get("canonical_query")
    if stored_query is not None:
        if not isinstance(stored_query, list) or not all(
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(name, str) for name in pair)
            for pair in stored_query
        ):
            raise SessionPersistenceError(
                "malformed session: 'canonical_query' must be a list of attribute-name pairs"
            )
        stored_atoms = {frozenset(pair) for pair in stored_query}
        replayed_atoms = {frozenset(atom.attributes) for atom in state.inferred_query()}
        if stored_atoms != replayed_atoms:
            raise SessionPersistenceError(
                "corrupt session: replaying the stored labels yields canonical query "
                f"{sorted(sorted(a) for a in replayed_atoms)} but the document records "
                f"{sorted(sorted(a) for a in stored_atoms)}"
            )


def deserialize_state(
    payload: dict[str, object],
    table: CandidateTable,
    strict: bool | None = None,
    verify_fingerprint: bool = True,
    verify_integrity: bool = True,
) -> InferenceState:
    """Rebuild an :class:`InferenceState` from a serialised session.

    ``strict`` defaults to the strictness the document records (v3; ``True``
    for v1/v2 documents), so a lenient session resumes lenient — its stored
    labels replay without tripping the strict-mode contradiction check, and
    the restored state keeps tolerating contradictions exactly as the
    original did.  Pass an explicit boolean to override the recorded value.

    ``verify_integrity`` replays the labels and checks they reproduce the
    stored ``canonical_query`` / ``converged`` summary, catching corrupted or
    hand-edited documents; it only applies when those fields are present and
    the fingerprint matches (a deliberately cross-table load with
    ``verify_fingerprint=False`` legitimately yields a different query).

    The document's shape and its ``labels`` object are checked before the
    state is built, so a malformed document fails with
    :class:`SessionPersistenceError` before any equality-type index work.
    """
    if require_document(payload).get("format") != FORMAT:
        raise SessionPersistenceError("not a JIM session document")
    if payload.get("version") not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise SessionPersistenceError(
            f"unsupported session version {payload.get('version')!r} (expected one of {supported})"
        )
    # Hashing every row is not free on large tables; skip it entirely when
    # neither check needs the answer.
    fingerprint_matches = (
        payload.get("table_fingerprint") == table_fingerprint(table)
        if (verify_fingerprint or verify_integrity)
        else False
    )
    if verify_fingerprint and not fingerprint_matches:
        raise SessionPersistenceError(
            "the saved session was recorded against a different candidate table"
        )
    labels = payload.get("labels", {})
    if not isinstance(labels, dict):
        raise SessionPersistenceError("malformed session: 'labels' must be an object")
    if strict is None:
        strict = document_strict(payload)
    state = InferenceState(table, strict=strict)
    for tuple_id_text, label_text in labels.items():
        try:
            tuple_id = int(tuple_id_text)
        except (TypeError, ValueError) as exc:
            raise SessionPersistenceError(
                f"malformed session: bad tuple id {tuple_id_text!r}"
            ) from exc
        state.add_label(tuple_id, Label.from_value(label_text))
    if verify_integrity and fingerprint_matches:
        _verify_outcome(payload, state)
    return state


def load_session(
    path: PathLike,
    table: CandidateTable,
    strict: bool | None = None,
    verify_fingerprint: bool = True,
    verify_integrity: bool = True,
) -> InferenceState:
    """Load a saved session and replay its labels onto ``table``.

    ``strict`` defaults to the strictness recorded in the document (see
    :func:`deserialize_state`).
    """
    payload = read_session_document(path)
    return deserialize_state(
        payload,
        table,
        strict=strict,
        verify_fingerprint=verify_fingerprint,
        verify_integrity=verify_integrity,
    )


def read_session_document(path: PathLike) -> dict[str, object]:
    """Read and structurally validate a saved session file (no replay)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SessionPersistenceError(f"cannot read session file {path!s}: {exc}") from exc
    return require_document(payload)


def resume_guided_session(
    path: PathLike,
    table: CandidateTable,
    strategy: object | None = None,
):
    """Convenience helper: load a saved session into a fresh guided session.

    The explicit ``strategy`` argument wins; otherwise the strategy name
    recorded in a v2 document is used, falling back to the default.
    """
    from .modes import GuidedSession

    payload = read_session_document(path)
    state = deserialize_state(payload, table)
    if strategy is None:
        strategy = session_options(payload)["strategy"]
    return GuidedSession(table, strategy=strategy, state=state)
