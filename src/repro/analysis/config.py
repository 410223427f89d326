"""The project scoping config: which files each invariant rule applies to.

Rules carry generic default scopes; this module is the single reviewed place
where *this repository* widens or narrows them.  Two kinds of entries live
here:

* **Layer scoping** — which subtrees an invariant governs at all (the sans-IO
  rule only makes sense over the core/protocol layers; the lazy-table rule
  over ``core/``).
* **Whole-module carve-outs** — modules whose *purpose* is the thing a rule
  forbids: the CSV reader and the SQLite adapter exist to do file IO, so
  excluding them here beats peppering them with inline suppressions.  Single
  legitimate call sites inside an otherwise-governed module use inline
  ``# repro-lint: disable=CODE`` comments instead, so the exception is
  visible at the offending line.

Paths are posix globs relative to the repository root (``*`` crosses ``/``).
"""

from __future__ import annotations

from .framework import Scope

#: Per-rule scope overrides for this repository.
PROJECT_SCOPES: dict[str, Scope] = {
    # The sans-IO layers: the inference core, the relational substrate, and
    # the protocol/stepper pair.  Carve-outs: csv_io and sqlite_adapter *are*
    # the IO boundary of the relational layer (reading files/databases is
    # their contract); oracle.py's interactive console oracle suppresses its
    # two terminal calls inline instead.
    "RPR001": Scope(
        include=(
            "src/repro/core/*",
            "src/repro/relational/*",
            "src/repro/service/protocol.py",
            "src/repro/service/stepper.py",
        ),
        exclude=(
            "src/repro/relational/csv_io.py",
            "src/repro/relational/sqlite_adapter.py",
        ),
    ),
    # Lock discipline applies to the whole library; only classes that bind
    # `self._lock` in __init__ are examined, so lock-free designs (the
    # asyncio facade's event-loop single-threading) are naturally exempt.
    "RPR002": Scope(include=("src/repro/*",)),
    # Lazy-table discipline governs the inference core (strategies included).
    "RPR003": Scope(include=("src/repro/core/*",)),
    # Seeded RNG everywhere.
    "RPR005": Scope(include=("*",)),
    # Wire-registry completeness is specific to the protocol module.
    "RPR006": Scope(include=("src/repro/service/protocol.py",)),
    # Executor discipline everywhere: the rule itself knows the one
    # sanctioned pool-creation site (core/parallel.py) and still forbids
    # module-level pool creation there.
    "RPR007": Scope(include=("*",)),
    # Transport monopoly: sockets and pipe connections are created only in
    # service/transport.py, the one seam supervision and chaos injection
    # wrap.  Everything else — the cluster supervisor included — talks
    # through FramedConnection/framed_pair.
    "RPR008": Scope(
        include=("src/repro/*", "benchmarks/*", "examples/*", "scripts/*"),
        exclude=("src/repro/service/transport.py",),
    ),
    # Layer architecture everywhere the import graph reaches: the layer
    # table inside the rule only governs repro.* modules, but import
    # *cycles* are flagged in any package the pass covers.
    "RPR009": Scope(include=("*",)),
    # Lock ordering is whole-program by nature; findings anchor at the
    # outer acquisition site of one edge of the cycle.
    "RPR010": Scope(include=("*",)),
    # Blocking-in-async governs every async def the pass sees — the asyncio
    # facade, the HTTP example, the async benchmarks.
    "RPR011": Scope(include=("*",)),
    # Resource lifecycle everywhere.  transport.py is *included*: its
    # factories return what they construct, which the rule accepts.
    "RPR012": Scope(include=("*",)),
}
