"""Compare the ``--metrics-json`` files of two checkouts.

    python runs/one-surface/export_diff.py BEFORE_DIR AFTER_DIR

For each ``*.json`` in both directories it prints the metric names only
one side has, every counter whose value differs and every histogram
whose ``count`` differs (gauges and histogram sums are wall clock).
"""

import json
import pathlib
import sys

before_dir, after_dir = map(pathlib.Path, sys.argv[1:3])
for path in sorted(before_dir.glob("*.json")):
    before = json.loads(path.read_text())
    after = json.loads((after_dir / path.name).read_text())
    names = {
        side: {f"{kind}:{name}" for kind in doc for name in doc[kind]}
        for side, doc in (("before", before), ("after", after))
    }
    counters = sorted(
        name for name, value in before["counters"].items()
        if after["counters"].get(name) != value
    )
    counts = sorted(
        name for name, h in before["histograms"].items()
        if after["histograms"].get(name, {}).get("count") != h["count"]
    )
    stages = sorted(
        name for name in after["histograms"] if name.startswith("stage.")
    )
    print(f"== {path.name}: {len(names['before'])} names")
    print("  only before:", sorted(names["before"] - names["after"]) or "-")
    print("  only after: ", sorted(names["after"] - names["before"]) or "-")
    print("  counters changed:", counters or "-")
    print("  histogram counts changed:", counts or "-")
    print("  stage histograms:", " ".join(stages))
