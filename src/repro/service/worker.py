"""The cluster worker: one ``SessionService`` behind a framed socket.

A worker is nothing but a loop — :func:`serve_connection` — that reads wire
commands off one :class:`~repro.service.transport.FramedConnection`, applies
them to a private :class:`~repro.service.service.SessionService`, and writes
replies back.  The connection is always one end of a socketpair
(:func:`~repro.service.transport.framed_pair`) the supervisor made, and the
same loop serves both deployment shapes:

* **in-process** — the cluster's ``backend="thread"`` runs it on a thread
  over its end;
* **local process** — ``backend="process"`` passes the end to the
  cluster's template process (:func:`template_entry`), which forks a worker
  that serves on it.

Write-through documents
-----------------------
The worker's service is constructed with a ``document_sink``, so every
state-changing command (create / resume / answer / answer_many) re-serialises
the touched session as a durable v3 persistence document.  The documents
collected during a command ride back to the supervisor on the reply —
*including error replies*, because a failed strict batch may still have
applied a prefix of its labels.  That piggyback is what makes worker death
survivable: the supervisor always holds a document no older than the last
acknowledged command, and replaying it onto a fresh worker reconstructs the
session exactly (replay is label-driven and the strategies are
deterministic).

The template process
--------------------
Starting a worker as a fresh interpreter costs a full import of numpy and
this package, so the process backend pays that once per cluster: it starts
one *template* process (with the cluster's ``mp_context``) that imports
this module and then forks a worker on each request arriving over a
private framed pipe — initial and respawned workers alike.  Each request
carries the worker's connection as a passed descriptor, so a worker never
dials anything: it is born holding its connection.  The template
owns its workers: it reaps them as they die, and when its pipe closes
(the supervisor stopped it, or went away) it SIGKILLs and reaps every
worker it forked before exiting.
"""

from __future__ import annotations

import os
import signal
import sys
import traceback

from .service import SessionService
from .transport import FramedConnection, TransportError, recv_connection
from .wire import error_reply, execute_command


def serve_connection(conn: FramedConnection) -> None:
    """Serve one supervisor connection until it closes or says ``shutdown``.

    The loop is serial — one command at a time — which is the worker's whole
    concurrency model: the supervisor holds one in-flight command per worker
    and schedules across workers.  Transport failures (EOF when the
    supervisor dies, a corrupt frame) end the loop; they are the
    supervisor's problem to notice, not the worker's to repair.
    """
    documents: dict[str, dict] = {}
    service = SessionService(document_sink=documents.__setitem__)
    try:
        while True:
            try:
                request = conn.recv()
            except TransportError:
                break  # supervisor gone or stream corrupt; nothing left to serve
            if not isinstance(request, dict):
                break
            if request.get("cmd") == "shutdown":
                try:
                    conn.send({"status": "ok", "result": None})
                except TransportError:
                    pass
                break
            documents.clear()
            try:
                reply: dict[str, object] = {
                    "status": "ok",
                    "result": execute_command(service, request),
                }
            except Exception as exc:
                reply = error_reply(exc)
            if documents:
                # The write-through piggyback: every document this command
                # touched, even on error (a strict batch may have applied a
                # prefix before failing).
                reply["documents"] = dict(documents)
            try:
                conn.send(reply)
            except TransportError:
                break
    finally:
        conn.close()


def template_entry(control: FramedConnection, supervisor_end: FramedConnection) -> None:
    """Fork workers on request until the supervisor closes its pipe.  (Process target.)

    ``supervisor_end`` is the supervisor's end of the same pipe, closed here
    at once: a ``fork`` start copies it into the template, and a copy held
    here would keep the supervisor's close (or death) from ever arriving as
    EOF.  It is passed explicitly so that this holds for every start method.

    Requests and replies are framed JSON objects: ``{"cmd": "fork",
    "max_frame_bytes"}``, followed by the worker's connection passed with
    :func:`~repro.service.transport.send_connection`, forks a worker that
    serves on that connection and answers ``{"pid"}`` (or ``{"error"}`` when
    the fork fails); the template closes its copy of the connection either
    way.  ``{"cmd": "kill", "pid"}`` SIGKILLs
    and reaps one of our workers, and ``{"cmd": "alive", "pid"}`` answers
    ``{"alive"}``; anything else ends the template like EOF does.  Every
    request first reaps the workers that died since the last one, so a dead
    worker never reads as alive.  The template
    starts no threads of its own: a fork copies only the calling thread.
    """
    supervisor_end.close()
    # multiprocessing terminates a daemonic child with SIGTERM at exit;
    # unwinding through the finally below takes our workers with us.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    children: set[int] = set()
    try:
        while True:
            try:
                request = control.recv()
            except TransportError:
                break  # the supervisor closed the pipe or is gone
            if not isinstance(request, dict):
                break
            _reap_exited(children)
            command = request.get("cmd")
            pid = request.get("pid")
            if command == "fork":
                try:
                    conn = recv_connection(control, request["max_frame_bytes"])
                except TransportError:
                    break  # the supervisor went away mid-request
                try:
                    pid = os.fork()
                except OSError as exc:
                    reply: dict[str, object] = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    if pid == 0:
                        _run_forked_worker(control, conn)
                    children.add(pid)
                    reply = {"pid": pid}
                finally:
                    conn.close()  # the worker serves on its own copy
            elif command == "kill":
                if pid in children:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    children.discard(pid)
                reply = {}
            elif command == "alive":
                reply = {"alive": pid in children}
            else:
                break
            try:
                control.send(reply)
            except TransportError:
                break
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for pid in children:
            os.kill(pid, signal.SIGKILL)  # an unreaped child cannot be gone
        for pid in children:
            os.waitpid(pid, 0)
        control.close()


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(0)


def _reap_exited(children: set[int]) -> None:
    """Collect the template's workers that have exited since the last call."""
    for pid in list(children):
        if os.waitpid(pid, os.WNOHANG)[0]:
            children.discard(pid)


def _run_forked_worker(control: FramedConnection, conn: FramedConnection) -> None:
    """The forked child: serve ``conn`` as a worker, then leave without returning.

    ``os._exit`` keeps the child out of the template's loop, its
    ``finally`` and the interpreter's exit handlers, whatever happens,
    interrupts included.
    """
    status = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        control.close()
        serve_connection(conn)
        status = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
