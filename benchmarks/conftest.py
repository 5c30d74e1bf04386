"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark file regenerates one table/figure of the paper's evaluation
(§4): it runs the experiment inside the ``benchmark`` fixture (so
``pytest --benchmark-only`` both times it and prints the paper-style rows)
and asserts the *shape* of the result — who wins, by roughly what factor —
rather than absolute numbers, per the reproduction contract in DESIGN.md.

``REPRO_BENCH_SEEDS`` controls how many traces per cell (default 2; the
paper uses 100 — raise it for tighter confidence at proportional runtime).
"""

import os

from repro.workloads import (
    in_loop_deadlock_scenario,
    incast_backpressure_scenario,
    normal_contention_scenario,
    out_of_loop_deadlock_scenario,
    pfc_storm_scenario,
)

BENCH_SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "2"))

# The anomaly suite used across the accuracy figures.
ANOMALY_BUILDERS = {
    "incast-backpressure": incast_backpressure_scenario,
    "pfc-storm": pfc_storm_scenario,
    "in-loop-deadlock": in_loop_deadlock_scenario,
    "out-of-loop-deadlock": out_of_loop_deadlock_scenario,
    "normal-contention": normal_contention_scenario,
}


def print_table(title, header, rows):
    """Render one paper-style table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
