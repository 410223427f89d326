"""The sans-IO session protocol and the multi-tenant session service.

This package inverts the engine's control flow so any frontend can drive
inference:

* :mod:`~repro.service.protocol` — the typed event vocabulary
  (:class:`QuestionAsked`, :class:`LabelApplied`, :class:`Converged`, …) with
  a stable JSON wire form;
* :mod:`~repro.service.stepper` — :class:`InferenceSession`, the pure
  state machine the caller steps with ``next_question()`` / ``submit()``;
* :mod:`~repro.service.service` — :class:`SessionService`, a thread-safe
  facade managing many concurrent sessions by id over a fingerprint-keyed
  table registry, with save/resume backed by the v2 persistence format;
* :mod:`~repro.service.aio` — :class:`AsyncSessionService`, the
  asyncio-native facade: per-session ordering, bounded-executor offload of
  the CPU-bound steps, backpressure on create, and per-session event
  streams (``async for event in service.events(sid)``);
* :mod:`~repro.service.dispatch` — the crowd-batch dispatcher: simulated
  workers with latency/noise models, majority-vote aggregation, and
  :class:`CrowdDispatcher` multiplexing a session's question batches across
  a worker pool;
* :mod:`~repro.service.transport` — length-prefixed JSON framing over
  socketpairs (:class:`FramedConnection`, :func:`framed_pair`), the only
  module in the library that touches sockets;
* :mod:`~repro.service.worker` — the cluster worker loop and the template
  process that forks process workers;
* :mod:`~repro.service.cluster` — :class:`ClusterSessionService`, the
  supervised sharded tier: N workers (threads or local processes) each
  running a `SessionService`, consistent
  ``session_id -> worker`` routing, framed JSON commands over sockets,
  heartbeat health checks, and transparent respawn + session replay on
  worker death — the same facade as the single-process service (wrap it in
  :class:`AsyncSessionService` for streams and backpressure on real
  multi-core parallelism).

The historical blocking surfaces (``JoinInferenceEngine.run``, the
``sessions.modes`` classes, the console demo) are thin adapters over this
package.
"""

from .aio import AsyncSessionService
from .cluster import (
    ClusterServiceError,
    ClusterSessionService,
    ClusterWorkerError,
    WorkerUnavailableError,
)
from .dispatch import (
    CrowdDispatcher,
    CrowdRunReport,
    DispatchError,
    SimulatedWorker,
    WorkerProfile,
    majority_vote,
    simulated_crowd,
)
from .protocol import (
    BatchQuestionsAsked,
    Converged,
    Event,
    InteractionMode,
    LabelApplied,
    ProtocolError,
    QuestionAsked,
    decode_event,
    encode_event,
    event_from_wire,
    event_to_wire,
)
from .service import SessionDescriptor, SessionService, SessionServiceError
from .stepper import InferenceSession, validate_mode_options
from .transport import (
    ConnectionClosedError,
    FramedConnection,
    FrameTooLargeError,
    TransportError,
)

__all__ = [
    "AsyncSessionService",
    "BatchQuestionsAsked",
    "ClusterServiceError",
    "ClusterSessionService",
    "ClusterWorkerError",
    "ConnectionClosedError",
    "Converged",
    "CrowdDispatcher",
    "CrowdRunReport",
    "DispatchError",
    "Event",
    "FrameTooLargeError",
    "FramedConnection",
    "InferenceSession",
    "InteractionMode",
    "LabelApplied",
    "ProtocolError",
    "QuestionAsked",
    "SessionDescriptor",
    "SessionService",
    "SessionServiceError",
    "SimulatedWorker",
    "TransportError",
    "WorkerProfile",
    "WorkerUnavailableError",
    "decode_event",
    "encode_event",
    "event_from_wire",
    "event_to_wire",
    "majority_vote",
    "simulated_crowd",
    "validate_mode_options",
]
