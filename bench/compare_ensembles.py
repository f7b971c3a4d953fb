#!/usr/bin/env python3
"""Seed-ensemble comparator for two sweep_cli builds.

Runs a paper-figure recipe over seeds 1..N with two sweep_cli commands, A
and B, and compares every (config, load, metric) ensemble: each side's mean
and standard deviation over the seeds, and Welch's z for the difference of
the means. Two-sided normal p-values are corrected with Holm's step-down
method across all gated comparisons at family-wise alpha 0.05; any rejected
comparison fails the run. Two sides with equal means and zero variance
compare equal (z = 0).

Gated metrics are the ones the paper's characterization rests on:
normalized deadlocks, mean deadlock-set and resource-set sizes, knot cycle
density and accepted ratio. Latency and the mean blocked-message count are
printed but not gated.

Each side is a sweep_cli path plus optional extra flags, quoted as one
argument. The extras follow the recipe's flags, so their values win:

    bench/compare_ensembles.py --a build/examples/sweep_cli \\
        --b "build/examples/sweep_cli --vcs 2" --recipe smoke --seeds 3

Recipes (2,000 warmup + 5,000 measured cycles unless noted):
    paper16  the perfbench paper16_sweep flags: 16-ary 2-cube, TFAR, 1 VC,
             loads 0.1-0.5
    fig7     bench_fig7_vcs: DOR and TFAR with 1-4 VCs, its nine loads
    fig8     bench_fig8_buffers: TFAR, 1 VC, buffers 2-32, its nine loads
    sec36    bench_sec36_traffic: DOR and TFAR, 1 VC, five traffic
             patterns, loads 0.2-0.9
    smoke    unidirectional DOR, 1 VC, 8-ary 2-cube, loads 0.2 and 0.3,
             500 + 2,000 cycles (a CI check that takes seconds)
Several recipes can be given comma-separated; they share one Holm family.

Exit codes: 0 no gated comparison rejected, 1 at least one rejected,
2 bad arguments or a failed sweep_cli run.
"""

import argparse
import concurrent.futures
import csv
import math
import os
import shlex
import statistics
import subprocess
import sys
import tempfile

ALPHA = 0.05

# (CSV column, gated)
METRICS = [
    ("norm_deadlocks", True),
    ("deadlock_set_mean", True),
    ("resource_set_mean", True),
    ("knot_density_mean", True),
    ("accepted_ratio", True),
    ("latency", False),
    ("blocked_mean", False),
]

# The paper's baseline (bench/common.hpp paper_default), with the windows and
# detector settings of the perfbench paper16_sweep workload.
PAPER_BASE = ["--k", "16", "--n", "2", "--buffer", "2", "--length", "32",
              "--traffic", "Uniform", "--interval", "50",
              "--recovery", "RemoveOldest", "--warmup", "2000",
              "--measure", "5000"]
FIGURE_LOADS = [0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.70, 0.90]


def build_recipes():
    """Recipe name -> list of (config label, sweep_cli flags, loads)."""
    recipes = {
        "paper16": [("TFAR1", PAPER_BASE + ["--routing", "TFAR", "--vcs", "1"],
                     [0.1, 0.2, 0.3, 0.4, 0.5])],
        "fig7": [],
        "fig8": [],
        "sec36": [],
        "smoke": [("DOR1-uni-8ary",
                   ["--k", "8", "--n", "2", "--uni", "--routing", "DOR",
                    "--vcs", "1", "--interval", "50",
                    "--recovery", "RemoveOldest", "--warmup", "500",
                    "--measure", "2000"],
                   [0.2, 0.3])],
    }
    for routing in ("DOR", "TFAR"):
        for vcs in range(1, 5):
            recipes["fig7"].append(
                (f"{routing}{vcs}",
                 PAPER_BASE + ["--routing", routing, "--vcs", str(vcs)],
                 FIGURE_LOADS))
    for depth in (2, 4, 6, 8, 16, 32):
        recipes["fig8"].append(
            (f"buffer={depth}",
             PAPER_BASE + ["--routing", "TFAR", "--vcs", "1",
                           "--buffer", str(depth)],
             FIGURE_LOADS))
    for routing in ("DOR", "TFAR"):
        for pattern in ("Uniform", "BitReversal", "Transpose",
                        "PerfectShuffle", "HotSpot"):
            recipes["sec36"].append(
                (f"{routing}1-{pattern}",
                 PAPER_BASE + ["--routing", routing, "--vcs", "1",
                               "--traffic", pattern],
                 [0.2, 0.4, 0.6, 0.9]))
    return recipes


def run_point_set(command, flags, loads, seed, workdir, tag):
    """Runs one sweep_cli invocation; returns {load: {metric: value}}."""
    path = os.path.join(workdir, tag + ".csv")
    argv = ([command[0]] + flags +
            ["--loads", ",".join(f"{x:g}" for x in loads),
             "--seed", str(seed), "--csv", path] + command[1:])
    # Each child runs its load points on one thread: the pool below already
    # runs one child per core, and a sweep's results do not depend on its
    # thread count.
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "FLEXNET_THREADS": "1"})
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    os.remove(path)
    out = {}
    for row in rows:
        out[round(float(row["load"]), 4)] = {
            name: float(row[name]) for name, _ in METRICS}
    return out


def welch_z(a, b):
    """Welch's z for mean(b) - mean(a); 0 for equal constant samples."""
    mean_a, mean_b = statistics.fmean(a), statistics.fmean(b)
    var_a = statistics.variance(a) if len(a) > 1 else 0.0
    var_b = statistics.variance(b) if len(b) > 1 else 0.0
    se = math.sqrt(var_a / len(a) + var_b / len(b))
    if se == 0.0:
        return 0.0 if mean_a == mean_b else math.copysign(math.inf,
                                                          mean_b - mean_a)
    return (mean_b - mean_a) / se


def two_sided_p(z):
    return math.erfc(abs(z) / math.sqrt(2.0))


def holm_reject(pvalues, alpha=ALPHA):
    """Holm's step-down: returns the set of rejected indices."""
    order = sorted(range(len(pvalues)), key=lambda i: pvalues[i])
    rejected = set()
    m = len(pvalues)
    for rank, i in enumerate(order):
        if pvalues[i] > alpha / (m - rank):
            break
        rejected.add(i)
    return rejected


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", required=True,
                        help="side A: sweep_cli path plus extra flags")
    parser.add_argument("--b", required=True,
                        help="side B: sweep_cli path plus extra flags")
    parser.add_argument("--recipe", default="paper16",
                        help="comma-separated recipe names")
    parser.add_argument("--seeds", type=int, default=10,
                        help="run seeds 1..N on each side")
    args = parser.parse_args()

    recipes = build_recipes()
    names = [r for r in args.recipe.split(",") if r]
    unknown = [r for r in names if r not in recipes]
    if unknown or not names or args.seeds < 1:
        print(f"error: bad --recipe/--seeds (recipes: "
              f"{', '.join(recipes)})", file=sys.stderr)
        return 2
    sides = {"A": shlex.split(args.a), "B": shlex.split(args.b)}

    # (recipe, config, side, seed) -> {load: {metric: value}}
    results = {}
    # One sweep_cli process per core, leaving one core for the rest.
    jobs = max(1, (os.cpu_count() or 2) - 1)
    with tempfile.TemporaryDirectory() as workdir, \
            concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        futures = {}
        for recipe in names:
            for label, flags, loads in recipes[recipe]:
                for seed in range(1, args.seeds + 1):
                    for side, command in sides.items():
                        key = (recipe, label, side, seed)
                        tag = f"{len(futures)}"
                        futures[pool.submit(run_point_set, command, flags,
                                            loads, seed, workdir, tag)] = key
        try:
            for future in concurrent.futures.as_completed(futures):
                results[futures[future]] = future.result()
        except (RuntimeError, OSError, KeyError, ValueError) as err:
            for future in futures:
                future.cancel()
            print(f"error: {err}", file=sys.stderr)
            return 2

    rows = []
    for recipe in names:
        for label, _, loads in recipes[recipe]:
            for load in loads:
                for metric, gated in METRICS:
                    samples = {
                        side: [results[(recipe, label, side, seed)]
                               [round(load, 4)][metric]
                               for seed in range(1, args.seeds + 1)]
                        for side in sides}
                    z = welch_z(samples["A"], samples["B"])
                    rows.append({
                        "where": f"{recipe} {label} load {load:g}",
                        "metric": metric, "gated": gated,
                        "a": samples["A"], "b": samples["B"],
                        "z": z, "p": two_sided_p(z)})

    gated = [row for row in rows if row["gated"]]
    rejected = holm_reject([row["p"] for row in gated])
    for i, row in enumerate(gated):
        row["rejected"] = i in rejected

    def fmt(row):
        def spread(xs):
            sd = statistics.stdev(xs) if len(xs) > 1 else 0.0
            return f"{statistics.fmean(xs):11.5g} {sd:10.4g}"
        verdict = ("REJECT" if row.get("rejected") else
                   "ok" if row["gated"] else "-")
        return (f"{row['where']:<32} {row['metric']:<18} {spread(row['a'])} "
                f"{spread(row['b'])} {row['z']:8.2f} {row['p']:9.3g} "
                f"{verdict}")

    header = (f"{'config / load':<32} {'metric':<18} {'mean_a':>11} "
              f"{'sd_a':>10} {'mean_b':>11} {'sd_b':>10} {'z':>8} "
              f"{'p':>9} gate")
    print(f"A: {args.a}\nB: {args.b}\nrecipes {','.join(names)}, seeds "
          f"1..{args.seeds}\n")
    print(header)
    for row in rows:
        print(fmt(row))

    largest = sorted(gated, key=lambda row: -abs(row["z"]))
    above2 = sum(1 for row in gated if abs(row["z"]) > 2)
    above3 = sum(1 for row in gated if abs(row["z"]) > 3)
    print(f"\nsummary: {len(gated)} gated comparisons "
          f"({len(rows) - len(gated)} printed only), {len(rejected)} "
          f"rejected (Holm, family-wise alpha {ALPHA}); |z| > 2: {above2}, "
          f"|z| > 3: {above3}; largest gated |z| = "
          f"{abs(largest[0]['z']) if largest else 0.0:.2f}")
    print("\nten largest gated |z|:")
    print(header)
    for row in largest[:10]:
        print(fmt(row))
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
