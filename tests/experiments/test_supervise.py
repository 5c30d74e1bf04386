"""``fork_map``: the one process pool under ``--jobs``."""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fork_map


def _sleep_then_pid(delay_s):
    time.sleep(delay_s)
    return delay_s, os.getpid()


def _raise_lookup_error(item):
    raise LookupError(f"no such item: {item}")


def _die_on_zero(item):
    if item == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


class TestForkMap:
    """The one pool under ``--jobs``: order-stable, in-process when there
    is nothing to fan out, loud when a worker raises or dies."""

    def test_results_in_item_order_when_first_finishes_last(self):
        delays = [0.4, 0.0, 0.0]
        results = fork_map(_sleep_then_pid, delays, jobs=2)
        assert [delay for delay, _ in results] == delays
        assert all(pid != os.getpid() for _, pid in results)

    @pytest.mark.parametrize(
        "items, jobs", [([0.0, 0.0, 0.0], 1), ([0.0], 4), ([], 4)]
    )
    def test_runs_in_process_without_a_pool(self, items, jobs):
        results = fork_map(_sleep_then_pid, iter(items), jobs)
        assert results == [(0.0, os.getpid())] * len(items)
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_reraised_with_its_type(self):
        with pytest.raises(LookupError, match="no such item"):
            fork_map(_raise_lookup_error, [1, 2, 3], jobs=2)

    def test_killed_worker_raises_broken_pool_instead_of_hanging(self):
        # A hang here is what CI's ``--timeout`` turns into a failure.
        with pytest.raises(BrokenProcessPool):
            fork_map(_die_on_zero, [0, 1, 2, 3], jobs=2)
