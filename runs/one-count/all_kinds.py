"""Write the metrics registry of one all-kinds chaos run as JSON.

    PYTHONPATH=src python runs/one-count/all_kinds.py OUT.json

The run is ``pfc-storm`` at seed 1 with retries on, under a plan that
turns on every fault kind (the plan of
``tests/experiments/test_run_export.py``).
"""

import json
import sys

from repro.experiments.runner import RunConfig, run_scenario
from repro.faults import FaultPlan
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS

PLAN = FaultPlan(
    seed=1,
    polling_loss_rate=0.1,
    polling_corrupt_rate=0.05,
    report_loss_rate=0.1,
    report_truncate_rate=0.1,
    report_delay_rate=0.1,
    dma_failure_rate=0.1,
    dma_stale_rate=0.1,
    agent_restart_rate=0.05,
    clock_skew_max_ns=usec(20),
)

result = run_scenario(
    SCENARIO_BUILDERS["pfc-storm"](seed=1), RunConfig(faults=PLAN, retry=True)
)
with open(sys.argv[1], "w") as fh:
    json.dump(result.metrics.to_dict(), fh, indent=2)
    fh.write("\n")
