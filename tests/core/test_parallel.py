"""Tests for ``repro.core.parallel``: the pool factory and the serial session.

A session computes serially, in the caller's thread: the setup histogram, the
informative-type scoring and the propagation id lookups each have one
implementation, and no option or environment variable fans them out.  The
only pools the library makes come from :func:`create_thread_pool`, and the
caller owns each one.
"""

from __future__ import annotations

import multiprocessing.process
import os
import threading

import pytest

from repro.core.parallel import create_thread_pool
from repro.datasets import synthetic
from repro.service.protocol import Converged
from repro.service.service import SessionService


def _forbid(name):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"a session called {name}")

    return refuse


class TestModeResolution:
    """There is one mode: serial."""

    def test_default_is_serial(self, monkeypatch):
        config = synthetic.SyntheticConfig(
            tuples_per_relation=40, num_relations=2, domain_size=5, seed=3
        )
        table = synthetic.generate_candidate_table(config)
        goal = synthetic.random_goal_query(table, num_atoms=2, seed=3)
        monkeypatch.setattr(threading.Thread, "start", _forbid("Thread.start"))
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", _forbid("Process.start")
        )
        monkeypatch.setattr(os, "fork", _forbid("os.fork"))

        service = SessionService()
        session_id = service.create(
            table, mode="guided", strategy="lookahead-entropy"
        ).session_id
        for _ in range(len(table)):
            event = service.next_question(session_id)
            if isinstance(event, Converged):
                break
            label = "yes" if goal.selects(table, event.tuple_id) else "no"
            service.answer(session_id, label)
        assert isinstance(event, Converged)
        assert not table.is_materialized()


class TestParallelExecutor:
    def test_closed_executor_refuses_work(self):
        pool = create_thread_pool(max_workers=2)
        assert pool.submit(sum, (1, 2)).result(timeout=10) == 3
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="shutdown"):
            pool.submit(sum, (1, 2))

    def test_pool_threads_carry_the_name_prefix(self):
        pool = create_thread_pool(max_workers=1, thread_name_prefix="repro-test")
        try:
            names = {
                pool.submit(lambda: threading.current_thread().name).result(timeout=10)
                for _ in range(3)
            }
        finally:
            pool.shutdown()
        # One worker serves every task, and it is named after the prefix.
        assert len(names) == 1
        assert names.pop().startswith("repro-test")

    def test_each_call_returns_a_pool_its_caller_owns(self):
        first = create_thread_pool(max_workers=1)
        second = create_thread_pool(max_workers=1)
        assert first is not second
        first.shutdown()
        try:
            # Shutting one caller's pool down leaves the other's working.
            assert second.submit(len, "abc").result(timeout=10) == 3
        finally:
            second.shutdown()
