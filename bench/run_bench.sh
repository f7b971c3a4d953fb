#!/usr/bin/env bash
# Runs the micro-benchmark suite and writes BENCH_micro_core.json at the repo
# root: a flat, fixed-schema summary (one record per benchmark) for tracking
# performance across commits.
#
#   bench/run_bench.sh [BUILD_DIR]      # default build dir: ./build
#
# Schema: {"git_sha": ..., "metadata": {"hardware_concurrency",
# "worker_threads", "flexnet_threads", "sharded_shard_counts",
# "repetitions"}, "benchmarks": [{"name", "cpu_time_ns", "real_time_ns",
# "iterations"}, ...]}. Requires an already-built bench_micro_core.
#
# Every benchmark runs REPETITIONS times, its repetitions interleaved at
# random with the other benchmarks', and each row records the median
# repetition (cpu and real time each), so one slow or fast stretch of the
# host cannot set a row, and every row, BM_Calibration included, samples the
# host over the whole run. A full run takes about REPETITIONS x 30 s on a
# 4-vCPU host.
#
# metadata.worker_threads is the thread count the sharded engine would use on
# this host (FLEXNET_THREADS when set, else hardware concurrency);
# sharded_shard_counts lists the shard counts the BM_NetworkStepSharded
# family actually exercised. compare_bench.py uses hardware_concurrency to
# decide whether the sharded scaling gate is meaningful on this machine.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
bench_bin="${build_dir}/bench/bench_micro_core"

if [[ ! -x "${bench_bin}" ]]; then
  echo "error: ${bench_bin} not found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j --target bench_micro_core" >&2
  exit 1
fi

readonly REPETITIONS=5

raw_json="$(mktemp)"
trap 'rm -f "${raw_json}"' EXIT

"${bench_bin}" --benchmark_repetitions="${REPETITIONS}" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_display_aggregates_only=true \
  --benchmark_format=json --benchmark_out="${raw_json}" \
  --benchmark_out_format=json >&2

git_sha="$(git -C "${repo_root}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# A summary recorded from uncommitted sources says so ("<sha>-dirty").
if ! git -C "${repo_root}" diff --quiet HEAD -- 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi
hw_threads="$(nproc 2>/dev/null || echo 1)"

python3 - "${raw_json}" "${git_sha}" "${hw_threads}" "${FLEXNET_THREADS:-}" \
  "${REPETITIONS}" > "${repo_root}/BENCH_micro_core.json" <<'PY'
import json
import re
import statistics
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)

# The repetitions of each benchmark, by name (interleaving shuffles the run
# order); google-benchmark's own aggregate rows are skipped.
runs = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    runs.setdefault(b.get("run_name", b["name"]), []).append(b)

def ns(b, key):
    # google-benchmark reports cpu_time/real_time in time_unit (ns default).
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
    return b[key] * scale

records = []
shard_counts = []
for name, reps in sorted(runs.items()):
    records.append({
        "name": name,
        "cpu_time_ns": statistics.median(ns(b, "cpu_time") for b in reps),
        "real_time_ns": statistics.median(ns(b, "real_time") for b in reps),
        "iterations": statistics.median_low(b["iterations"] for b in reps),
    })
    m = re.match(r"BM_NetworkStepSharded/(\d+)", name)
    if m:
        shard_counts.append(int(m.group(1)))

hw = int(sys.argv[3])
flexnet_threads = int(sys.argv[4]) if sys.argv[4].isdigit() else None
metadata = {
    "hardware_concurrency": hw,
    "worker_threads": flexnet_threads if flexnet_threads else hw,
    "flexnet_threads": flexnet_threads,
    "sharded_shard_counts": sorted(shard_counts),
    "repetitions": int(sys.argv[5]),
}
json.dump({"git_sha": sys.argv[2], "metadata": metadata,
           "benchmarks": records}, sys.stdout, indent=2)
sys.stdout.write("\n")
PY

echo "wrote ${repo_root}/BENCH_micro_core.json (${git_sha})" >&2
