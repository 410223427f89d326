"""RPR008 — raw transport primitives live only in ``service/transport.py``.

The cluster's fault story (heartbeats, respawn, chaos injection, frame
limits) works because every byte between the supervisor and a worker moves
through one seam: :class:`~repro.service.transport.FramedConnection`.  A
stray ``import socket`` elsewhere — or a resurrected
``multiprocessing.Pipe()`` from the pipe-era cluster — creates a side
channel the supervisor cannot health-check, the chaos harness cannot sever,
and the frame-size limit does not govern.  This rule keeps the transport
monopoly honest.

Flagged, outside the transport module:

* imports of ``socket`` (any form, any nesting level),
* imports of ``multiprocessing.connection`` (its pipe machinery:
  ``Connection``, ``Client`` and their accept side), and
* calls to ``Pipe(…)`` / ``*.Pipe(…)``.

Plain ``import multiprocessing`` stays allowed — spawning worker
*processes* is process management, not transport; their conversation still
has to flow through framed sockets.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..framework import Finding, ModuleSource, Rule, Scope, dotted_name, register_rule


def _names_connection_machinery(module_name: str) -> bool:
    root = module_name.split(".")[0]
    return root == "socket" or module_name.startswith("multiprocessing.connection")


@register_rule
class RawSocketsRule(Rule):
    code = "RPR008"
    name = "transport-monopoly"
    rationale = (
        "sockets and pipe connections are created only in service/transport.py, "
        "where supervision and fault injection can see them"
    )
    default_scope = Scope(
        include=("src/repro/*", "benchmarks/*", "examples/*", "scripts/*"),
        exclude=("src/repro/service/transport.py",),
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _names_connection_machinery(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"import of transport primitive {alias.name!r} outside "
                            "service/transport.py; use FramedConnection/framed_pair",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level != 0:
                    continue
                source = node.module or ""
                if _names_connection_machinery(source):
                    yield self.finding(
                        module,
                        node,
                        f"import from transport primitive {source!r} outside "
                        "service/transport.py; use FramedConnection/framed_pair",
                    )
                elif source == "multiprocessing":
                    for alias in node.names:
                        if alias.name in ("Pipe", "connection"):
                            yield self.finding(
                                module,
                                node,
                                f"import of multiprocessing.{alias.name} outside "
                                "service/transport.py; worker links are framed "
                                "sockets, not pipes",
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else dotted_name(func)
                if name is not None and (name == "Pipe" or name.endswith(".Pipe")):
                    yield self.finding(
                        module,
                        node,
                        f"call to {name}() outside service/transport.py; worker "
                        "links are framed sockets, not pipes",
                    )
