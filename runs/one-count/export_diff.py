"""Compare the ``--metrics-json`` files of two checkouts, name by name.

    python runs/one-count/export_diff.py BEFORE_DIR AFTER_DIR

For each ``*.json`` in both directories: the names only BEFORE has, the
names only AFTER has, and every counter whose value differs.  Gauges and
histograms are compared by name only (their values are wall clock, apart
from ``run.sim_ns``, which is compared too).
"""

import json
import pathlib
import sys


def names(doc):
    return {
        f"{kind}:{name}" for kind in ("counters", "gauges", "histograms")
        for name in doc[kind]
    }


before_dir, after_dir = map(pathlib.Path, sys.argv[1:3])
for path in sorted(before_dir.glob("*.json")):
    before = json.loads(path.read_text())
    after = json.loads((after_dir / path.name).read_text())
    removed = sorted(names(before) - names(after))
    added = sorted(names(after) - names(before))
    changed = sorted(
        name for name, value in before["counters"].items()
        if name in after["counters"] and after["counters"][name] != value
    )
    if before["gauges"].get("run.sim_ns") != after["gauges"].get("run.sim_ns"):
        changed.append("run.sim_ns")
    print(f"== {path.name}")
    print("  removed:", ", ".join(
        f"{n}={before['counters'].get(n.split(':', 1)[1], '-')}" for n in removed
    ) or "-")
    print("  added:  ", ", ".join(
        f"{n}={after['counters'].get(n.split(':', 1)[1], '-')}" for n in added
    ) or "-")
    print("  changed:", ", ".join(changed) or "-")
    faults = {n: v for n, v in before["counters"].items() if n.startswith("faults.")}
    if faults:
        print("  faults.*:", ", ".join(f"{n}={v}" for n, v in sorted(faults.items())))
