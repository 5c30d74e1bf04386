"""Process policy for the multiprocess planes.

:func:`fork_map` is the embarrassingly parallel fan-out: independent
seeded evaluations (``--jobs`` of ``repro sweep`` / ``repro fuzz``,
:func:`~repro.experiments.runner.run_scenarios_parallel`) mapped over a
short-lived process pool, results in item order.  It is unsupervised on
purpose — a dead worker raises ``BrokenProcessPool``, loudly.

The shard fleet (:mod:`repro.experiments.shardrun`) is the other shape:
long-lived barrier peers that can hang or die (OOM kill, SIGKILL, a
crashed native extension), so the parent runs a watchdog over them.
:data:`DEFAULT_SHARD_TIMEOUT_S` is how long the barrier waits for any
single worker reply before declaring the worker lost (read at call
time, so a test can shorten it).  A lost worker has one
answer: terminate the fleet and rerun the scenario once on the
deterministic single-process engine — byte-identical output, just
slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, TypeVar

if TYPE_CHECKING:
    import multiprocessing.context

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_SHARD_TIMEOUT_S = 60.0


def fork_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: workers inherit the parent's interpreter state
    (including the hash salt), so any hash-order-dependent iteration
    behaves exactly as in-process execution."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def fork_map(fn: Callable[[T], R], items: Iterable[T], jobs: int) -> List[R]:
    """``[fn(item) for item in items]`` across up to ``jobs`` processes.

    Results come back in item order regardless of completion order.
    ``jobs <= 1`` or a single item runs in-process with no pool.  ``fn``
    and every item and result cross the pool pickled, so ``fn`` must be a
    module-level function.  An exception raised by ``fn`` is re-raised
    here; a worker that dies raises ``BrokenProcessPool``.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=fork_context()
    ) as pool:
        return list(pool.map(fn, items))


class ShardWorkerError(RuntimeError):
    """A shard worker failed; the parent reruns the scenario serially."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ShardTimeout(ShardWorkerError):
    """A worker missed the barrier deadline (hung, or silently wedged)."""


class ShardCrashed(ShardWorkerError):
    """A worker process died (nonzero exit, SIGKILL) mid-protocol."""

