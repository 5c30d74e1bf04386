#!/bin/sh
# Record the outputs that must stay byte-identical across a change.
#
#     sh runs/one-surface/outputs.sh CHECKOUT OUT_DIR
#
# CHECKOUT is a source tree (a `git archive` copy); every command runs
# from inside it with PYTHONPATH=src and no bytecode written.
set -u
checkout=$(cd "$1" && pwd)
mkdir -p "$2/metrics"
out=$(cd "$2" && pwd)
cd "$checkout" || exit 1
export PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1
builders="contention-masked-storm fleet-incast-k16 fleet-incast-k8 in-loop-deadlock
incast-backpressure lordma-attack normal-contention out-of-loop-deadlock pfc-storm"
for b in $builders; do
  for s in 1 2 3; do
    python -m repro run "$b" --seed "$s" > "$out/$b-$s.stdout" 2>&1
    echo $? > "$out/$b-$s.exit"
  done
  python -m repro run "$b" --seed 1 --metrics-json "$out/metrics/$b.json" > /dev/null 2>&1
done
python -m repro run pfc-storm --shards 2 \
  --metrics-json "$out/metrics/pfc-storm-shards2.json" > /dev/null 2>&1
python -m repro chaos --loss-rates 0 0.1 0.25 --json "$out/chaos.json" > "$out/chaos.stdout" 2>&1
echo $? >> "$out/chaos.stdout"
python -m repro chaos --loss-rates 0 0.1 0.25 --no-retries \
  --json "$out/chaos-noretry.json" > "$out/chaos-noretry.stdout" 2>&1
echo $? >> "$out/chaos-noretry.stdout"
python -m repro trace pfc-storm --jsonl "$out/trace.jsonl" > "$out/trace.stdout" 2>&1
python -m repro trace pfc-storm --sim-events --jsonl "$out/trace-sim.jsonl" \
  > "$out/trace-sim.stdout" 2>&1
python -m repro monitor pfc-storm --prom "$out/monitor.prom" \
  --jsonl "$out/monitor.jsonl" --html "$out/monitor.html" > "$out/monitor.stdout" 2>&1
# Some commands print the files they wrote; print those relative to OUT_DIR.
sed -i "s|$out/||" "$out"/*.stdout
cd "$out" && find . -type f ! -name SHA256SUMS | sort | xargs sha256sum > SHA256SUMS
