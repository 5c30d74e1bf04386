"""The service plane: a long-lived, multi-tenant diagnosis daemon.

``repro serve`` turns the replay-a-scenario-then-exit pipeline into a
resident service (SwitchPointer/007-style: operators query a monitor that
is already running).  One asyncio process owns a continuously-running
monitored fabric — the simulator advanced on the event loop itself, a
~2 ms chunk of events between polls of the sockets — and serves
concurrent clients over a line-oriented JSON protocol:

- **streaming subscriptions** to the live alert/incident feed
  (:class:`~repro.serve.broker.StreamBroker`: per-subscriber bounded
  queues, drop-oldest-with-notice slow-consumer eviction);
- **on-demand diagnosis queries** ("diagnose victim X now") behind
  admission control and per-tenant token-bucket rate limits
  (:class:`~repro.serve.admission.AdmissionController`), load-shedding
  with explicit ``rejected`` responses;
- **HTTP GET endpoints** on the same listener mounting the monitor's
  Prometheus/JSONL/HTML exporters plus ``/healthz`` and ``/servicez``
  self-observability (all ``serve.*`` metrics live in a
  :class:`~repro.obs.metrics.MetricsRegistry`).

The simulation/diagnosis side rides :class:`~repro.experiments.runner.
FabricSession`, so a served episode produces byte-identical verdicts to
the batch ``repro run`` path for the same scenario/seed.
"""

from .admission import AdmissionController, TokenBucket
from .broker import StreamBroker, Subscription
from .client import ServeClient, http_get
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    parse_request,
)
from .service import DiagnosisService, ServeConfig

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "StreamBroker",
    "Subscription",
    "ServeClient",
    "http_get",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode",
    "parse_request",
    "DiagnosisService",
    "ServeConfig",
]
