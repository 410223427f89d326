"""The library's one sanctioned pool-creation site.

Analysis rule RPR007 forbids constructing executors anywhere else, so every
layer that needs a worker pool obtains it through :func:`create_thread_pool`
and owns (and shuts down) what it gets.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def create_thread_pool(
    max_workers: int | None = None, thread_name_prefix: str = "repro-pool"
) -> ThreadPoolExecutor:
    """A plain thread pool for layers that own their executor (e.g. the
    asyncio facade's ``run_in_executor`` bridge).

    Keeping the construction here — rather than at each call site — is what
    lets rule RPR007 pin pool creation to this module; the *caller* still
    owns the pool and is responsible for shutting it down.
    """
    return ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix=thread_name_prefix)
