"""RPR011 — nothing blocks the event loop inside an ``async def``.

The asyncio facade's whole contract is that the loop thread never waits on
the sync serving tier: every call into :class:`SessionService` (or the
cluster variant), every framed-socket send, every sleep goes through the
sanctioned ``create_thread_pool`` executor seam
(``loop.run_in_executor(self._executor, partial(...))``).  One direct call
is enough to stall *every* concurrent session on the loop — a latency bug
that benchmarks only catch under contention.

Flagged, inside any ``async def`` (nested ``def``/``lambda`` bodies are
separate execution contexts and exempt):

* calls whose resolved dotted name is known-blocking — ``time.sleep``, the
  ``subprocess`` run/``Popen`` family, ``os.system``/``os.popen``,
  ``socket.create_connection``, and the transport's descriptor passing
  (``transport.send_connection``/``transport.recv_connection``, which
  wait on the peer);
* method calls whose receiver statically resolves to a *sync* service class
  (``SessionService``, ``ClusterSessionService``) — these take locks and do
  real work on the calling thread;
* ``send``/``recv`` on a receiver resolving to ``FramedConnection`` —
  framed sockets block by design.

Receivers the model cannot type are *not* flagged: the rule prefers a
false negative over teaching people to sprinkle suppressions.  Handing a
bound method to ``run_in_executor``/``partial`` never trips the rule — the
call node executes on the worker thread, not the loop.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..framework import Finding, Scope, register_rule
from ..project import ProjectModel, ProjectRule

#: Resolved dotted callables that block the calling thread.
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
    }
)

#: Suffixes of resolved dotted names that block (project seams).
BLOCKING_SUFFIXES = ("transport.send_connection", "transport.recv_connection")

#: Sync service classes whose every method does thread-blocking work.
SYNC_SERVICE_CLASSES = frozenset({"SessionService", "ClusterSessionService"})

#: Blocking methods of the framed-transport classes.
TRANSPORT_BLOCKING = {
    "FramedConnection": frozenset({"send", "recv"}),
}


@register_rule
class BlockingInAsyncRule(ProjectRule):
    code = "RPR011"
    name = "blocking-in-async"
    rationale = (
        "async def bodies never call known-blocking callables (sync service "
        "methods, transport sends, time.sleep, subprocess) directly; blocking "
        "work goes through the create_thread_pool executor seam"
    )
    default_scope = Scope()

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.iter_functions():
            if not summary.is_async:
                continue
            for call in summary.calls:
                message = self._blocking_reason(call.dotted, call.receiver_class, call.method)
                if message is not None:
                    yield self.finding_at(
                        summary.relpath,
                        call.line,
                        f"{message} inside async def {summary.qualname!r}; "
                        "offload via the create_thread_pool executor "
                        "(loop.run_in_executor)",
                    )

    @staticmethod
    def _blocking_reason(
        dotted: str | None, receiver_class: str | None, method: str | None
    ) -> str | None:
        if dotted is not None:
            if dotted in BLOCKING_DOTTED:
                return f"blocking call {dotted}()"
            if any(dotted.endswith(suffix) for suffix in BLOCKING_SUFFIXES):
                return f"blocking transport call {dotted}()"
        if receiver_class is not None and method is not None:
            if receiver_class in SYNC_SERVICE_CLASSES and not method.startswith("_"):
                return f"direct sync-service call {receiver_class}.{method}()"
            blocking = TRANSPORT_BLOCKING.get(receiver_class)
            if blocking is not None and method in blocking:
                return f"blocking transport call {receiver_class}.{method}()"
        return None
