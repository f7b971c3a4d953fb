#!/usr/bin/env python3
"""Perf-regression gate over BENCH_micro_core.json summaries.

Compares a freshly produced benchmark summary against the committed baseline
and fails (exit 1) when a gated benchmark regressed by more than the
threshold. Raw nanoseconds are not comparable across hosts (the committed
baseline and a CI runner differ in clock speed and contention), so both sides
are first normalized by a calibration benchmark — BM_Calibration, a
CPU-bound sort kernel defined in the bench file itself, whose ratio between
two hosts approximates their general speed ratio. (Calibration must call no
flexnet code: normalizing by a library kernel, as the gate once did with
BM_CycleEnumerationCapped, turns any speedup of that kernel into a phantom
regression of every gated benchmark.) The gate then compares *normalized*
times:

    regression = (fresh[b] / fresh[cal]) / (base[b] / base[cal]) - 1

The sharded engine is gated separately on an intra-summary wall-clock ratio
(no calibration needed): BM_NetworkStepSharded/8 must run >= 3x faster than
/1 on hosts with >= 8 hardware threads.

Usage:
    bench/compare_bench.py --baseline BENCH_micro_core.json \
        --fresh /tmp/fresh.json [--threshold 0.15]

Exit codes: 0 ok, 1 regression past threshold, 2 malformed/missing input.
"""

import argparse
import json
import sys

# Benchmarks the gate enforces: the simulator cycle rate (saturated, light
# load, and idle — the activity-gated scheduler's three regimes), the same
# cycle under trace replay and a pace profile (the workload subsystem's
# overhead budget), the worst-case (full-rebuild oracle) detection pass, the
# cycle density of one real knot, and one observability sample.
GATED = ["BM_NetworkStep/8", "BM_NetworkStep/16", "BM_NetworkStep/32",
         "BM_NetworkStepIdle/event", "BM_NetworkStepLowLoad/event",
         "BM_NetworkStepTraceReplay/iterations:4000", "BM_NetworkStepPaced",
         "BM_FullDetectionPass", "BM_KnotCycleDensity", "BM_MetricsSample"]
CALIBRATION = "BM_Calibration"

# Sharded scaling gate: an intra-summary wall-clock ratio on the fresh run,
# so no cross-host calibration is involved. BM_NetworkStepSharded/1 is the
# default engine (one shard, inline pool, no worker threads), /8 the scaling
# headline. The gate only runs on hosts with >= 8 hardware threads
# (metadata.hardware_concurrency). Every arg steps the same pinned cycle
# count (kShardedIterations in bench_micro_core.cpp), which google-benchmark
# writes into the name.
SHARDED_ONE = "BM_NetworkStepSharded/1/iterations:10000/real_time"
SHARDED_MANY = "BM_NetworkStepSharded/8/iterations:10000/real_time"
MIN_SHARDED_SPEEDUP = 3.0   # /1 vs /8 wall clock


def load_summary(path):
    with open(path) as f:
        data = json.load(f)
    cpu = {b["name"]: float(b["cpu_time_ns"]) for b in data["benchmarks"]}
    # real_time_ns joined the schema with the sharded engine; fall back to
    # cpu time for summaries that predate it.
    real = {b["name"]: float(b.get("real_time_ns", b["cpu_time_ns"]))
            for b in data["benchmarks"]}
    return cpu, real, data.get("metadata", {})


def check_sharded_scaling(real, metadata):
    """Returns False when the sharded gate fails, True otherwise."""
    missing = [n for n in (SHARDED_ONE, SHARDED_MANY) if n not in real]
    if missing:
        print(f"  sharded gate: {', '.join(missing)} missing from fresh "
              "summary, skipped")
        return True

    cores = metadata.get("hardware_concurrency")
    if cores is None or cores < 8:
        print(f"  sharded speedup /8 vs /1: skipped "
              f"(hardware_concurrency={cores}, need >= 8)")
        return True
    speedup = real[SHARDED_ONE] / real[SHARDED_MANY]
    ok = speedup >= MIN_SHARDED_SPEEDUP
    verdict = "ok" if ok else "FAIL"
    print(f"  sharded speedup /8 vs /1: {speedup:.2f}x "
          f"(min {MIN_SHARDED_SPEEDUP:.1f}x) [{verdict}]")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_micro_core.json")
    parser.add_argument("--fresh", required=True,
                        help="summary produced by this run")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed normalized regression (0.15 = 15%%)")
    args = parser.parse_args()

    try:
        base, _, _ = load_summary(args.baseline)
        fresh, fresh_real, fresh_meta = load_summary(args.fresh)
    except (OSError, KeyError, ValueError) as err:
        print(f"error: cannot load summaries: {err}", file=sys.stderr)
        return 2

    for side, times in (("baseline", base), ("fresh", fresh)):
        if CALIBRATION not in times:
            print(f"error: calibration benchmark {CALIBRATION} missing from "
                  f"{side} summary", file=sys.stderr)
            return 2

    failed = False
    print(f"calibration {CALIBRATION}: baseline {base[CALIBRATION]:.0f}ns, "
          f"fresh {fresh[CALIBRATION]:.0f}ns")
    for name in GATED:
        if name not in base:
            # A benchmark new in this commit has no baseline yet; the refresh
            # of BENCH_micro_core.json in the same PR closes the gap.
            print(f"  {name}: not in baseline, skipped")
            continue
        if name not in fresh:
            print(f"error: gated benchmark {name} missing from fresh summary",
                  file=sys.stderr)
            return 2
        norm_base = base[name] / base[CALIBRATION]
        norm_fresh = fresh[name] / fresh[CALIBRATION]
        delta = norm_fresh / norm_base - 1.0
        verdict = "FAIL" if delta > args.threshold else "ok"
        if delta > args.threshold:
            failed = True
        print(f"  {name}: baseline {base[name]:.0f}ns, fresh "
              f"{fresh[name]:.0f}ns, normalized {delta:+.1%} [{verdict}]")

    if not check_sharded_scaling(fresh_real, fresh_meta):
        failed = True

    if failed:
        print(f"perf gate: regression beyond {args.threshold:.0%} threshold",
              file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
