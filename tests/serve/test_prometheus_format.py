"""Prometheus exposition-format correctness, validated through a scrape.

A Prometheus server rejects (or silently mangles) expositions that skip
``# HELP``/``# TYPE`` headers, use illegal metric names, or leave label
values unescaped.  These tests parse the text the way a scraper would:
every sample line must belong to an announced family, every name must be
legal, and escaped label values must round-trip.
"""

import asyncio
import re

from tests.serve.conftest import wait_episode_complete

from repro.monitor.export import (
    _prom_label,
    _sanitize_name,
    registry_prometheus_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import http_get

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^({_NAME})(?:\{{(.*)\}})? (-?(?:[0-9.eE+-]+|nan|inf))$", re.IGNORECASE
)
_LABEL = re.compile(rf'({_NAME})="((?:[^"\\]|\\.)*)"(?:,|$)')


def _unescape(value):
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def validate_exposition(text):
    """Parse one exposition; returns {family: (type, [sample names])}.

    Raises AssertionError on anything a scraper would choke on.
    """
    families = {}
    helped = set()
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in families, f"family {name} announced twice"
            assert kind in ("counter", "gauge", "summary", "histogram",
                            "untyped"), f"bad type {kind!r}"
            assert name in helped, f"# TYPE {name} with no # HELP"
            families[name] = (kind, [])
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        sample_name, labels, _value = match.groups()
        base = sample_name
        for suffix in ("_sum", "_count", "_bucket"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
        assert base in families, f"sample {sample_name} has no # TYPE"
        assert base == current, (
            f"sample {sample_name} outside its family block"
        )
        if labels:
            consumed = sum(
                len(m.group(0)) for m in _LABEL.finditer(labels)
            )
            assert consumed == len(labels), f"bad label syntax: {labels!r}"
        families[base][1].append(sample_name)
    # Header-only families (announced, zero samples) are legal exposition;
    # no non-empty assertion here.
    return families


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        assert _prom_label('plain') == 'plain'
        assert _prom_label('a"b') == 'a\\"b'
        assert _prom_label("a\\b") == "a\\\\b"
        assert _prom_label("a\nb") == "a\\nb"

    def test_escaping_round_trips(self):
        hostile = 'sw"1\\P\n2'
        assert _unescape(_prom_label(hostile)) == hostile

    def test_hostile_value_yields_parseable_exposition(self):
        registry = MetricsRegistry()
        registry.inc('serve.tenant.evil"team\\x.queries')
        text = registry_prometheus_text(registry)
        validate_exposition(text)

    def test_name_sanitization(self):
        assert _sanitize_name("serve.queries.accepted") == \
            "serve_queries_accepted"
        assert re.fullmatch(_NAME, _sanitize_name("9weird metric-name!"))


class TestRegistryExposition:
    def test_counters_gauges_summaries(self):
        registry = MetricsRegistry()
        registry.inc("serve.queries.accepted", 3)
        registry.gauge("serve.uptime_s").set(2.0)
        hist = registry.histogram("serve.query.wall_s")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        families = validate_exposition(registry_prometheus_text(registry))
        assert families["repro_serve_queries_accepted"][0] == "counter"
        assert families["repro_serve_uptime_s"][0] == "gauge"
        kind, samples = families["repro_serve_query_wall_s"]
        assert kind == "summary"
        assert "repro_serve_query_wall_s_sum" in samples
        assert "repro_serve_query_wall_s_count" in samples

    def test_quantile_labels_present(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        text = registry_prometheus_text(registry)
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'quantile="{quantile}"' in text


class TestServeScrape:
    def test_live_scrape_is_valid_exposition(self, serving):
        async def main():
            async with serving() as (service, path):
                await wait_episode_complete(service)
                loop = asyncio.get_running_loop()
                status, headers, body = await loop.run_in_executor(
                    None, lambda: http_get("/metrics", unix_path=path)
                )
                return status, headers, body

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        families = validate_exposition(body)
        # Monitor series and serve self-metrics both present, all typed.
        assert any(n.startswith("repro_monitor_") for n in families)
        assert any(n.startswith("repro_serve_") for n in families)
        assert "repro_monitor_alerts_total" in families
        # Every monitor series family carries a real HELP string.
        for line in body.splitlines():
            if line.startswith("# HELP "):
                assert len(line.split(" ", 3)[3].strip()) > 0
