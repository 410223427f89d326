"""The invariant rules.  Importing this package registers every rule."""

from . import (  # noqa: F401 - imports register the rules
    blocking_async,
    executor_discipline,
    layer_architecture,
    lazy_tables,
    lock_discipline,
    lock_order,
    raw_sockets,
    resource_lifecycle,
    sans_io,
    seeded_rng,
    wire_registry,
)
