"""Worker supervision policy for the multiprocess planes.

The sharded simulator (:mod:`repro.experiments.shardrun`) and the
analyzer pool (:mod:`repro.experiments.analyzerpool`) both fork workers
that can hang or die (OOM kill, SIGKILL, a crashed native extension).
This module centralizes the knobs that decide what the parent does about
it:

* ``--shard-timeout`` / ``REPRO_SHARD_TIMEOUT`` — how long the parent's
  barrier watchdog waits for any single worker reply before declaring
  the worker lost (seconds, strictly positive float; default 60).
* ``REPRO_SHARD_FALLBACK`` — what happens after a loss:
  ``serial`` (default) terminates every worker and reruns the scenario
  once on the deterministic single-process engine — byte-identical
  output, just slower;
  ``degrade`` keeps the survivors' partial results and surfaces a
  degraded diagnosis whose completeness reflects the lost pods;
  ``fail`` raises.

Unknown environment values are a loud startup error, not a silent
default: a chaos harness that *thinks* it is testing the degrade path
must never quietly run the serial one.
"""

from __future__ import annotations

import os
from typing import Optional

DEFAULT_SHARD_TIMEOUT_S = 60.0

FALLBACK_SERIAL = "serial"
FALLBACK_DEGRADE = "degrade"
FALLBACK_FAIL = "fail"
FALLBACK_MODES = (FALLBACK_SERIAL, FALLBACK_DEGRADE, FALLBACK_FAIL)


class ShardWorkerError(RuntimeError):
    """A shard/analyzer worker failed; the watchdog decides what's next."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ShardTimeout(ShardWorkerError):
    """A worker missed the barrier deadline (hung, or silently wedged)."""


class ShardCrashed(ShardWorkerError):
    """A worker process died (nonzero exit, SIGKILL) mid-protocol."""


def resolve_timeout(config_timeout_s: Optional[float] = None) -> float:
    """The barrier watchdog deadline in seconds.

    Precedence: explicit config (``--shard-timeout``) over the
    ``REPRO_SHARD_TIMEOUT`` environment, over the default.  Rejects
    non-positive and non-numeric values loudly.
    """
    if config_timeout_s is not None:
        if config_timeout_s <= 0:
            raise ValueError(
                f"shard timeout must be a positive number of seconds, "
                f"got {config_timeout_s!r}"
            )
        return float(config_timeout_s)
    raw = os.environ.get("REPRO_SHARD_TIMEOUT")
    if raw is None or raw == "":
        return DEFAULT_SHARD_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SHARD_TIMEOUT={raw!r} is not a number (seconds expected)"
        ) from None
    if value <= 0:
        raise ValueError(
            f"REPRO_SHARD_TIMEOUT={raw!r} must be a positive number of seconds"
        )
    return value


def resolve_fallback() -> str:
    """The configured reaction to a lost worker (``REPRO_SHARD_FALLBACK``)."""
    raw = os.environ.get("REPRO_SHARD_FALLBACK")
    if raw is None or raw == "":
        return FALLBACK_SERIAL
    if raw not in FALLBACK_MODES:
        raise ValueError(
            f"unknown REPRO_SHARD_FALLBACK={raw!r} "
            f"(expected one of: {', '.join(FALLBACK_MODES)})"
        )
    return raw

