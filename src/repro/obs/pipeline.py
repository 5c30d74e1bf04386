"""Pipeline-aware span bookkeeping on top of the generic tracer.

:class:`PipelineObs` owns the span taxonomy of one scenario run and the
cross-component plumbing the raw :class:`~repro.obs.trace.Tracer` cannot
know about: which victim a polling mirror belongs to, which polling round
an epoch read should parent under, when a diagnosis span opens (first
trigger) and closes (verdict).  Components receive the ``PipelineObs``
(or ``None`` — the compiled-in fast path is a single ``is not None``
check) and call the domain hooks below; they never touch span ids.

Span taxonomy (parents in brackets):

- ``scenario``                       — the whole run (root)
- ``diagnosis`` [scenario]           — one victim complaint, trigger→verdict
- ``polling_round`` [diagnosis]      — one polling-packet generation
  (round 1 at the trigger; round N>1 per retransmission)
- ``epoch_read`` [polling_round]     — one switch-CPU register DMA read
- ``graph_build`` [diagnosis]        — Algorithm 1 for one victim
- ``port_pause`` [scenario]          — one PFC pause episode
  (emitted by :class:`~repro.obs.simtrace.SimTraceObserver`)

Event kinds: ``rtt_trigger``/``stall_trigger`` [diagnosis],
``polling_mirror``/``polling_forward``/``polling_suppressed``/
``polling_lost`` [polling_round], ``report_delivered``/``report_lost``/
``report_truncated``/``report_delayed`` [polling_round],
``signature_match`` and ``verdict`` [diagnosis], and the sim-level
``pkt_enqueue``/``pkt_dequeue``/``pause_rx``/``resume_rx`` [scenario].

Degradation contract: injected faults may *flag* spans (``degraded``
attrs, ``polling_lost``/``report_lost`` events) but the causal chain of a
diagnosis that produced a verdict is never silently absent — the chaos
trace-invariant tests pin this at 10% loss.

Every event emission also bumps the ``events.<kind>`` counter in the
attached :class:`~repro.obs.metrics.MetricsRegistry`; the trace-property
suite asserts counters and event counts never diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry
from .trace import JsonlSink, NullSink, Sink, Span, Tracer


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability knobs carried by ``RunConfig.obs``.

    A live tracer holds open file handles and span graphs and cannot
    cross the parallel runner's process boundary; this config can, and
    each worker builds its own tracer from it.
    """

    trace: bool = False            # build a tracer (else obs is None)
    jsonl_path: Optional[str] = None  # also stream records to this file
    sim_events: bool = False       # per-packet sim events (heavy; tests/CLI)

    def build_sink(self) -> Sink:
        """JSONL when ``jsonl_path`` is set; the tracer keeps every record
        in memory (``tracer.records()``) either way."""
        if self.jsonl_path:
            return JsonlSink(self.jsonl_path)
        return NullSink()


class PipelineObs:
    """Domain-aware observability facade for one scenario run."""

    def __init__(
        self, tracer: Tracer, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scenario_span: Optional[Span] = None
        # victim (FlowKey) -> its open diagnosis span / current polling round
        self._diagnosis: Dict[Any, Span] = {}
        self._round: Dict[Any, Span] = {}
        self._round_no: Dict[Any, int] = {}

    # -- internal -------------------------------------------------------------

    def _event(self, kind: str, span: Optional[Span], time_ns: int, **attrs) -> None:
        self.metrics.inc(f"events.{kind}")
        self.tracer.event(kind, span=span, time_ns=time_ns, **attrs)

    def _anchor(self, victim) -> Optional[Span]:
        """Best-effort parent for victim-scoped records: the victim's open
        polling round, else its diagnosis span, else the scenario root."""
        span = self._round.get(victim)
        if span is None:
            span = self._diagnosis.get(victim)
        return span if span is not None else self.scenario_span

    # -- scenario -------------------------------------------------------------

    def begin_scenario(self, name: str, start_ns: int = 0, **attrs) -> Span:
        self.scenario_span = self.tracer.begin_span(
            "scenario", name, start_ns, **attrs
        )
        return self.scenario_span

    def end_scenario(self, end_ns: int) -> None:
        """Close the root and sweep stragglers (flagged, never dropped)."""
        for victim, span in list(self._round.items()):
            self.tracer.end_span(span, end_ns, unresolved=True)
        self._round.clear()
        for victim, span in list(self._diagnosis.items()):
            # A diagnosis span still open here never reached a verdict
            # (e.g. the victim triggered but the runner found no report).
            self.tracer.end_span(span, end_ns, unresolved=True)
        self._diagnosis.clear()
        if self.scenario_span is not None:
            self.tracer.end_span(self.scenario_span, end_ns)
        self.tracer.finish(end_ns)

    # -- detection agent ------------------------------------------------------

    def on_trigger(
        self, victim, time_ns: int, rtt_ns: int, base_rtt_ns: int, kind: str = "rtt"
    ) -> None:
        """A victim complained.  First complaint opens its diagnosis span."""
        span = self._diagnosis.get(victim)
        if span is None:
            span = self.tracer.begin_span(
                "diagnosis",
                str(victim),
                time_ns,
                parent=self.scenario_span,
                victim=str(victim),
            )
            self._diagnosis[victim] = span
        self._event(
            f"{kind}_trigger",
            span,
            time_ns,
            rtt_ns=rtt_ns,
            base_rtt_ns=base_rtt_ns,
        )

    def on_polling_injected(self, victim, time_ns: int, attempt: int = 0) -> None:
        """A polling packet left the source host: a new trace generation."""
        previous = self._round.get(victim)
        if previous is not None:
            # Round N ended without satisfying the agent's report probe —
            # that is exactly why a retransmission happens.
            if attempt > 0:
                self.tracer.end_span(previous, time_ns, superseded=True)
            else:
                self.tracer.end_span(previous, time_ns)
        diagnosis = self._diagnosis.get(victim)
        number = self._round_no.get(victim, 0) + 1
        self._round_no[victim] = number
        self._round[victim] = self.tracer.begin_span(
            "polling_round",
            f"round-{number}",
            time_ns,
            parent=diagnosis if diagnosis is not None else self.scenario_span,
            attempt=attempt,
        )
        self.metrics.inc("polling.rounds")

    # -- polling engine -------------------------------------------------------

    def on_polling_mirror(self, switch: str, victim, time_ns: int) -> None:
        self._event("polling_mirror", self._anchor(victim), time_ns, switch=switch)

    def on_polling_forward(
        self, switch: str, victim, time_ns: int, fanout: int
    ) -> None:
        self._event(
            "polling_forward", self._anchor(victim), time_ns,
            switch=switch, fanout=fanout,
        )

    def on_polling_suppressed(self, switch: str, victim, time_ns: int, kind: str) -> None:
        self._event(
            "polling_suppressed", self._anchor(victim), time_ns,
            switch=switch, dedup=kind,
        )

    def on_polling_lost(self, switch: str, victim, time_ns: int) -> None:
        """Injected loss truncated the trace here: flag the round degraded."""
        span = self._round.get(victim)
        if span is not None:
            span.attrs["degraded"] = True
        self._event("polling_lost", self._anchor(victim), time_ns, switch=switch)

    # -- collector ------------------------------------------------------------

    def on_epoch_read(
        self,
        switch: str,
        victim,
        start_ns: int,
        end_ns: int,
        epochs: int,
        faults: tuple = (),
    ) -> None:
        """One register DMA read, from CPU-mirror to snapshot.

        Collector-side dedup means one read can serve several concurrent
        victims; the span parents under the round whose mirror most
        recently touched the switch (the read it actually drove).
        """
        span = self.tracer.begin_span(
            "epoch_read",
            switch,
            start_ns,
            parent=self._anchor(victim),
            switch=switch,
            epochs=epochs,
        )
        if faults:
            span.attrs["degraded"] = True
            span.attrs["faults"] = list(faults)
        self.tracer.end_span(span, end_ns)
        self.metrics.inc("collector.epoch_reads")

    def on_collection_shared(self, switch: str, victim, time_ns: int) -> None:
        """Collector dedup: this victim's mirror found a read already in
        flight (or just done) for the switch — its telemetry rides the
        concurrent victim's collection wave.  The event keeps the causal
        chain intact in this victim's subtree even though the ``epoch_read``
        span parents under the round that actually drove the read."""
        self._event(
            "epoch_shared", self._anchor(victim), time_ns, switch=switch
        )

    def on_report(
        self,
        fate: str,
        switch: str,
        victim,
        time_ns: int,
        faults: tuple = (),
        delay_ns: int = 0,
    ) -> None:
        """Report-channel outcome: ``delivered``/``lost``/``truncated``/``delayed``."""
        attrs: Dict[str, Any] = {"switch": switch}
        if faults:
            attrs["faults"] = list(faults)
        if delay_ns:
            attrs["delay_ns"] = delay_ns
        anchor = self._anchor(victim)
        if fate != "delivered":
            span = self._round.get(victim)
            if span is not None:
                span.attrs["degraded"] = True
        self._event(f"report_{fate}", anchor, time_ns, **attrs)

    # -- analyzer -------------------------------------------------------------

    def begin_graph_build(self, victim, time_ns: int) -> Span:
        return self.tracer.begin_span(
            "graph_build",
            str(victim) if victim is not None else "all",
            time_ns,
            parent=self._diagnosis.get(victim, self.scenario_span),
        )

    def end_graph_build(self, span: Span, time_ns: int, **attrs) -> None:
        self.tracer.end_span(span, time_ns, **attrs)
        self.metrics.inc("analyzer.graph_builds")

    def on_signature_match(
        self, victim, time_ns: int, anomaly: str, root_cause: str, port: str
    ) -> None:
        """Algorithm 2 matched one anomaly signature (a Finding)."""
        self._event(
            "signature_match",
            self._diagnosis.get(victim, self.scenario_span),
            time_ns,
            anomaly=anomaly,
            root_cause=root_cause,
            port=port,
        )

    def diagnosis_span_id(self, victim) -> Optional[int]:
        """Span id of the victim's open diagnosis span (read it *before*
        :meth:`on_verdict`, which closes and forgets the span)."""
        span = self._diagnosis.get(victim)
        return span.span_id if span is not None else None

    def on_verdict(self, victim, time_ns: int, diagnosis) -> None:
        """The diagnosis is final: emit the verdict and close the chain."""
        span = self._diagnosis.pop(victim, None)
        self._event(
            "verdict",
            span if span is not None else self.scenario_span,
            time_ns,
            anomaly=diagnosis.anomaly.value,
            confidence=diagnosis.confidence,
            completeness=diagnosis.completeness,
            findings=len(diagnosis.findings),
        )
        current_round = self._round.pop(victim, None)
        if current_round is not None:
            self.tracer.end_span(current_round, time_ns)
        if span is not None:
            attrs = {
                "anomaly": diagnosis.anomaly.value,
                "confidence": diagnosis.confidence,
            }
            if diagnosis.confidence != "full":
                attrs["degraded"] = True
            self.tracer.end_span(span, time_ns, **attrs)
