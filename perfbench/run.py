#!/usr/bin/env python3
"""End-to-end benchmark of flexnet on two of its canonical recipes.

    python3 perfbench/run.py --workload paper16_sweep --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # both in turn

Run from anywhere inside a source tree; the first call configures and builds
perfbench/execution.cpp with the sources in src/ (Release) into .bench_build/.

Workloads (closed batches on the host; open-loop Bernoulli or paced arrivals
in simulated time), both serial on one thread:
  paper16_sweep    paper Fig. 6: 16-ary 2-cube, TFAR, 1 VC, loads 0.1..0.5;
                   detector-heavy (knot cycle density), cache-resident
  burst32_capture  32-ary 3-cube uni-torus DOR under pace:burst(200,0.2,4),
                   with deadlock capture, metrics stream and manifest

--trace 0 runs the workload several times, each in a fresh perfbench_exec
process with its own seed derived from --seed, so that together they take
about --seconds, and reports the median of each end-to-end metric:
  wall_s        construction of the first point until the last point's
                results, streams, manifest and captures are flushed
  cycles_per_s  simulated cycles / host seconds in Simulation::run()
  setup_s       host seconds in Simulation construction, over the points
  peak_rss_mb   ru_maxrss of the perfbench_exec process

--trace 1 runs the workload untraced, traced and untraced again, all on the
inputs of the first timed execution, checks that the three give the same
digest of simulated statistics and that named spans cover at least 95% of
the traced wall time, and reports the per-layer ledger of the traced
execution (see ledger.py).

Each execution checks its points (invariants, message conservation) and
replays every captured deadlock; an operation is one point or one replay.
Each execution's seed, digest and simulated statistics are printed on a
"# digests" line and compared with the digests perfbench/baseline.json
records for the same seeds. The last line of standard output is one JSON
object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TMP = ROOT / ".bench_tmp"
EXEC = BUILD / "perfbench_exec"
BASELINE = HERE / "baseline.json"

# points:  simulated points per execution
# nominal_s: host seconds one execution takes, checks and replays included,
#            on an idle 4-vCPU Xeon host (a busy one takes up to ~1.7x as
#            long); sets how many executions fill --seconds
WORKLOADS = {
    "paper16_sweep": {"points": 5, "nominal_s": 1.9},
    "burst32_capture": {"points": 1, "nominal_s": 3.6},
}
MIN_EXECUTIONS = 3
# A run must end within 180 s of its start (the first one builds first).
RUN_DEADLINE_S = 165
MIN_SPAN_COVERAGE_PCT = 95.0


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no flexnet sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_exec"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def steal_seconds():
    """Host CPU time stolen from this machine's vCPUs so far."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def load_average():
    try:
        return os.getloadavg()[0]
    except OSError:
        return float("nan")


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def execution_seed(seed, index):
    return (seed * 1000 + index) % (1 << 62)


def execute(workload, seed, traced, workroot, deadline):
    """Runs perfbench_exec once in a fresh directory; returns (result, diag)."""
    timeout = max(1.0, deadline - time.monotonic())
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    # Every workload is serial: no --shards, points one after another.
    # FLEXNET_THREADS=1 also keeps the library's host-sized defaults serial.
    env = dict(os.environ, FLEXNET_THREADS="1")
    cmd = [str(EXEC), "--workload", workload, "--seed", str(seed),
           "--dir", str(workdir)]
    if traced:
        cmd.append("--trace")
    steal0 = steal_seconds()
    result = None
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            log(f"# perfbench_exec exited {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        else:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if traced:
                result["spans"] = ledger.read_spans(workdir / "spans.bin")
    except subprocess.TimeoutExpired:
        log(f"# perfbench_exec timed out after {timeout:.0f} s")
    except (ValueError, IndexError, OSError) as e:
        log(f"# unreadable perfbench_exec output: {e}")
    diag = {"steal_s": steal_seconds() - steal0, "load1": load_average()}
    shutil.rmtree(workdir, ignore_errors=True)
    if result is not None:
        for err in result["errors"]:
            log(f"# check failed: {err}")
    return result, diag


def print_diagnostics(results):
    first = next((r for r in results if r is not None), {})
    log(f"# host nproc={len(os.sched_getaffinity(0))} "
        f"compiler={first.get('compiler', '?')} "
        f"build={first.get('build_type', '?')} sha={git_sha()}")


def print_execution(i, seed, result, diag):
    if result is None:
        log(f"# exec {i} seed {seed}: FAILED  steal {diag['steal_s']:.2f} s "
            f"load1 {diag['load1']:.2f}")
        return
    log(f"# exec {i} seed {seed}: wall {result['wall_s']:.4f} s  run "
        f"{result['run_s']:.4f} s  setup {result['setup_s']:.4f} s  rss "
        f"{result['peak_rss_kb'] / 1024:.1f} MB  ops "
        f"{result['failed']}/{result['attempted']} failed  digest "
        f"{result['digest']}  steal {diag['steal_s']:.2f} s  load1 "
        f"{diag['load1']:.2f}")


def print_digests(workload, runs):
    """Prints the seed, digest and simulated statistics of every completed
    execution in `runs` ((seed, result) pairs), and compares each digest
    with the one the seed commit gave for that seed, where recorded."""
    try:
        recorded = json.loads(BASELINE.read_text())["workloads"][workload][
            "executions"]
    except (OSError, ValueError, KeyError):
        recorded = {}
    rows = [{"seed": seed, "digest": r["digest"], "stats": r["stats"]}
            for seed, r in runs if r is not None]
    log("# digests " + json.dumps({"workload": workload, "executions": rows}))
    same = differ = 0
    for row in rows:
        known = recorded.get(str(row["seed"]))
        if known is None:
            continue
        if known["digest"] == row["digest"]:
            same += 1
        else:
            differ += 1
            log(f"# seed {row['seed']}: digest {row['digest']} differs from "
                f"{known['digest']} in {BASELINE.name} (stats there: "
                f"{json.dumps(known['stats'])})")
    log(f"# digests vs {BASELINE.name}: {same} same, {differ} differ, "
        f"{len(rows) - same - differ} seeds not recorded there")


def timed(workload, seed, seconds, workroot, deadline):
    spec = WORKLOADS[workload]
    count = max(MIN_EXECUTIONS, round(seconds / spec["nominal_s"]))
    seeds, results = [], []
    for i in range(count):
        if results and time.monotonic() + 2 * spec["nominal_s"] > deadline:
            log(f"# deadline: stopped after {i} of {count} executions")
            break
        s = execution_seed(seed, i)
        result, diag = execute(workload, s, False, workroot, deadline)
        print_execution(i, s, result, diag)
        seeds.append(s)
        results.append(result)
    print_diagnostics(results)
    print_digests(workload, zip(seeds, results))
    attempted, failed = ledger.account(results, spec["points"])
    ok = [r for r in results if r is not None]
    if not ok:
        fail(f"every execution of {workload} failed")
    def median(key):
        return statistics.median(key(r) for r in ok)

    metrics = {
        "wall_s": (median(lambda r: r["wall_s"]), "s"),
        "cycles_per_s": (median(lambda r: r["cycles"] / r["run_s"]), "1/s"),
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_kb"] / 1024), "MB"),
    }
    for name, (value, unit) in metrics.items():
        log(f"{workload} {name} = {value:.6g} {unit} (median of {len(ok)})")
    log(f"{workload} failed/attempted = {failed}/{attempted}")
    return failed == 0, attempted, failed, metrics


def traced(workload, seed, workroot, deadline):
    """Untraced, traced, untraced on the same inputs: the digests must agree,
    and the traced wall time is compared with the mean of the other two."""
    spec = WORKLOADS[workload]
    s = execution_seed(seed, 0)
    runs = []
    for mode in ("untraced", "traced", "untraced"):
        result, diag = execute(workload, s, mode == "traced", workroot,
                               deadline)
        print_execution(mode, s, result, diag)
        runs.append(result)
    print_diagnostics(runs)
    print_digests(workload, [(s, r) for r in runs])
    attempted, failed = ledger.account(runs, spec["points"])
    trace = runs[1]
    plain = [r for r in (runs[0], runs[2]) if r is not None]
    if trace is None or not plain:
        fail(f"the traced run of {workload} did not complete")
    correct = failed == 0
    for r in plain:
        if trace["digest"] != r["digest"]:
            log(f"# traced digest {trace['digest']} != untraced {r['digest']}")
            correct = False
    layers, spans = ledger.layer_ledger(
        trace["spans"], trace["span_names"], trace["phase_s"], trace["counts"],
        trace["wall_s"], statistics.mean(r["wall_s"] for r in plain))
    log(f"{'span':20} {'count':>8} {'total_s':>12} {'self_s':>12}")
    for name, count, total, own in spans:
        log(f"{name:20} {count:8d} {total:12.6f} {own:12.6f}")
    for name, (value, unit, basis) in layers.items():
        log(f"{workload} {name} = {value:.6g} {unit}" +
            (f"  [{basis}]" if basis else ""))
    coverage = layers["exp.span_coverage_pct"][0]
    if coverage < MIN_SPAN_COVERAGE_PCT:
        log(f"# named spans cover {coverage:.2f}% of the traced wall time, "
            f"under {MIN_SPAN_COVERAGE_PCT}%")
        correct = False
    metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    build()
    TMP.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(dir=TMP)
    outcomes = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            if args.trace:
                outcomes[name] = traced(name, args.seed, workroot, deadline)
            else:
                outcomes[name] = timed(name, args.seed, args.seconds, workroot,
                                       deadline)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            TMP.rmdir()  # only when no other run is using it
        except OSError:
            pass
    # One workload reports bare metric names; "all" prefixes each with its
    # workload.
    metrics = {}
    for name, (_, _, _, values) in outcomes.items():
        for metric, value in values.items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    for name in metrics:
        if not ledger.valid_metric_name(name):
            fail(f"invalid metric name {name!r}")
    print(json.dumps({
        "correct": all(o[0] for o in outcomes.values()),
        "attempted": sum(o[1] for o in outcomes.values()),
        "failed": sum(o[2] for o in outcomes.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
