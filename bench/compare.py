#!/usr/bin/env python3
"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

A is the base, B the candidate.  Each end-to-end metric's direction and
bound come from ``BENCHMARK.json``.  One row per (metric, workload) shows
both values and the ratio B/A; a metric whose recorded run-to-run spread
(on either side) exceeds its bound is ``unresolved``, not ``unchanged``.

Exits 1 on a regression beyond the bound, a higher failure share, or a
changed ``sim_digest`` (simulated statistics must not move under a host
speed-up).  Results from different machines, seeds or run lengths are
refused unless ``--allow-mixed`` says the reader knows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("cpu_count", "python", "numpy", "platform", "seed")


def load_bounds() -> Dict[str, Tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def mixed_reasons(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    reasons = [
        f"{key}: {a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r}"
        for key in MUST_MATCH
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    if a.get("seconds") != b.get("seconds"):
        reasons.append(f"seconds: {a.get('seconds')} vs {b.get('seconds')}")
    for label, doc in (("A", a), ("B", b)):
        if not doc.get("comparable", True):
            reasons.append(f"{label} is a smoke run (timings not comparable)")
    return reasons


def judge(
    base: float, cand: float, better: str, bound: float,
    spreads: Tuple[Optional[float], Optional[float]],
) -> str:
    """ok / improved / REGRESSION / unresolved for one metric."""
    if base == 0:
        return "no-base"
    worse_by = (cand - base) / base if better == "lower" else (base - cand) / base
    if any(s is not None and s > bound for s in spreads):
        return "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    return "improved" if worse_by < -bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    bounds = load_bounds()
    lines = [
        f"{'workload':<15}{'metric':<20}{'A (base)':>14}{'B':>14}"
        f"{'B/A':>8}  {'bound':>5}  verdict"
    ]
    bad = False
    for workload, base_doc in a["workloads"].items():
        cand_doc = b["workloads"].get(workload)
        if cand_doc is None:
            lines.append(f"{workload:<15}missing from B")
            bad = True
            continue
        for metric, (better, bound) in bounds.items():
            base = base_doc["end_to_end"][metric]
            cand = cand_doc["end_to_end"][metric]
            spreads = (
                base_doc.get("spread", {}).get(metric),
                cand_doc.get("spread", {}).get(metric),
            )
            verdict = judge(base, cand, better, bound, spreads)
            bad |= verdict == "REGRESSION"
            ratio = cand / base if base else float("nan")
            lines.append(
                f"{workload:<15}{metric:<20}{base:>14.6g}{cand:>14.6g}"
                f"{ratio:>8.3f}  {bound:>5.2f}  {verdict}"
            )
        base_share = base_doc["failed"] / base_doc["attempted"]
        cand_share = cand_doc["failed"] / cand_doc["attempted"]
        verdict = "REGRESSION" if cand_share > base_share else "ok"
        bad |= cand_share > base_share
        lines.append(
            f"{workload:<15}{'fail_share':<20}{base_share:>14.6g}"
            f"{cand_share:>14.6g}{'':>8}  {0:>5.2f}  {verdict}"
        )
        moved = sorted(
            op for op, digest in base_doc["digests"].items()
            if cand_doc["digests"].get(op, digest) != digest
        )
        for op in moved:
            lines.append(f"{workload:<15}sim_digest changed: {op}")
        bad |= bool(moved)
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument(
        "--allow-mixed", action="store_true",
        help="compare although machine, seed or run length differ",
    )
    args = parser.parse_args(argv)
    a = json.loads(Path(args.base).read_text())
    b = json.loads(Path(args.candidate).read_text())
    reasons = mixed_reasons(a, b)
    if reasons and not args.allow_mixed:
        print("refusing to compare results that are not like for like:")
        for reason in reasons:
            print(f"  {reason}")
        print("pass --allow-mixed to compare anyway")
        return 2
    for reason in reasons:
        print(f"mixed: {reason}")
    lines, bad = compare(a, b)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
