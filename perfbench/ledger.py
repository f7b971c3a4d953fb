"""Helpers of the flexnet benchmark: span arithmetic, percentiles, metric
names and operation accounting, plus the per-layer ledger of a traced run.

perfbench_exec writes spans as fixed 32-byte little-endian records (see
SPAN_RECORD); everything here is plain Python so it can be unit-tested
without building the simulator (python3 -m unittest discover perfbench).
"""

import math
import re
import struct
from collections import defaultdict

# start_ns, end_ns, parent index (-1 for a root), cycle, name id, point, flags
SPAN_RECORD = struct.Struct("<qqiiBBB5x")
FLAG_PASS = 1  # a core.detect span during which a detection pass ran

# Percentiles a tail may be reported at, lowest first.
LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def valid_metric_name(name):
    """Starts with a letter or digit; at most 64 letters, digits, _ . -"""
    return bool(_NAME.match(name))


def read_spans(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) % SPAN_RECORD.size:
        raise ValueError(f"{path}: truncated span record")
    return list(SPAN_RECORD.iter_unpack(data))


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another; overlapping parts count once.
    """
    children = defaultdict(list)
    for s in spans:
        if s[2] >= 0:
            children[s[2]].append((s[0], s[1]))
    return [
        (s[1] - s[0]) - covered(children.get(i, ()), s[0], s[1])
        for i, s in enumerate(spans)
    ]


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list (q in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _label(q):
    return "p" + f"{q * 100:.2f}".rstrip("0").rstrip(".")


def tail(values, at_most=1.0):
    """The highest ladder percentile, no higher than `at_most`, that has at
    least MIN_BEYOND samples beyond it; the max when none has.

    Returns (label, value, sample count).
    """
    n = len(values)
    if n == 0:
        return ("none", 0.0, 0)
    best = None
    for q in LADDER:
        if q <= at_most and n * (1 - q) >= MIN_BEYOND - 1e-9:
            best = q
    if best is None:
        return ("max", max(values), n)
    return (_label(best), percentile(values, best), n)


def account(executions, points):
    """Failed/attempted operations over executions.

    `executions` holds each execution's parsed result, or None when the
    process failed or printed no result: that execution then counts all
    `points` as attempted and failed (its replays are unknown).
    """
    attempted = failed = 0
    for result in executions:
        if result is None:
            attempted += points
            failed += points
        else:
            attempted += result["attempted"]
            failed += result["failed"]
    return attempted, failed


def ratio(num, den):
    return num / den if den else 0.0


def layer_ledger(spans, names, phase_s, counts, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced execution.

    Returns ({metric: (value, unit, basis)}, span table), where `basis`
    states the base of a ratio or the percentile and sample count of a
    timing, and the span table lists (name, count, total s, self s).
    A layer that a workload leaves off still has its span: the null-guarded
    call site Simulation::run_cycles also pays.
    """
    by_name = defaultdict(list)
    selfs = self_times(spans)
    self_by_name = defaultdict(int)
    for s, own in zip(spans, selfs):
        by_name[names[s[4]]].append(s)
        self_by_name[names[s[4]]] += own

    def total_s(name):
        return sum(s[1] - s[0] for s in by_name[name]) * 1e-9

    c = counts
    out = {}

    def put(name, value, unit, basis=""):
        out[name] = (value, unit, basis)

    passes = [
        (s[1] - s[0]) * 1e-6 for s in by_name["core.detect"] if s[6] & FLAG_PASS
    ]
    # One sim.step span per simulated cycle, one snapshot.capture span per
    # call of the detector's capture hook.
    steps = [(s[1] - s[0]) * 1e-3 for s in by_name["sim.step"]]
    cycles = len(steps)
    capture_calls = len(by_name["snapshot.capture"])

    recovery = phase_s["recovery"]
    put("core.detect_s", total_s("core.detect"), "s",
        f"{len(by_name['core.detect'])} ticks")
    put("core.self_s", self_by_name["core.detect"] * 1e-9 - recovery, "s",
        "detect minus capture spans and recovery")
    put("core.recovery_s", recovery, "s", "PhaseProfiler recovery")
    put("core.passes", c["passes"], "count")
    put("core.skipped_passes", c["skipped_passes"], "count")
    put("core.skip_ratio", ratio(c["skipped_passes"], c["passes"]), "ratio",
        f"{c['skipped_passes']}/{c['passes']} passes")
    p50 = percentile(passes, 0.5) if passes else 0.0
    put("core.pass_p50_ms", p50, "ms", f"p50 of n={len(passes)}")
    label, value, n = tail(passes)
    put("core.pass_tail_ms", value, "ms", f"{label} of n={n}")
    put("core.pass_max_ms", max(passes) if passes else 0.0, "ms",
        f"max of n={len(passes)}")
    put("core.closure_mean", ratio(c["closure_sum"], c["pressure_passes"]),
        "count", f"{c['closure_sum']}/{c['pressure_passes']} passes")
    put("core.knots_found", c["knots_found"], "count")
    put("core.deadlocks", c["deadlocks"], "count")
    put("core.transient_knots", c["transient_knots"], "count")
    confirmed = c["deadlocks"] + c["transient_knots"]
    put("core.confirm_ratio", ratio(c["deadlocks"], confirmed), "ratio",
        f"{c['deadlocks']}/{confirmed} deadlocks+transient")
    put("core.density_cycles", c["density_cycles"], "count")
    put("core.density_capped", c["density_capped"], "count",
        f"of {c['deadlocks']} deadlocks")

    put("sim.step_s", total_s("sim.step"), "s", f"{len(steps)} steps")
    put("sim.deliver_s", phase_s["deliver"], "s", "PhaseProfiler")
    put("sim.route_s", phase_s["route"], "s", "PhaseProfiler")
    put("sim.transmit_s", phase_s["transmit"], "s", "PhaseProfiler")
    put("sim.step_p50_us", percentile(steps, 0.5) if steps else 0.0, "us",
        f"p50 of n={len(steps)}")
    label, value, n = tail(steps, at_most=0.99)
    put("sim.step_p99_us", value, "us", f"{label} of n={n}")
    put("sim.blocked_mean", ratio(c["blocked_sum"], cycles), "count",
        f"{c['blocked_sum']}/{cycles} cycles")
    put("sim.active_channels_mean",
        ratio(c["active_channels_sum"], cycles), "count",
        f"{c['active_channels_sum']}/{cycles} cycles")
    put("sim.ns_per_active_channel",
        ratio(total_s("sim.step") * 1e9, c["active_channels_sum"]), "ns",
        f"step ns/{c['active_channels_sum']} active channels")
    put("sim.delivered", c["delivered"], "count")
    put("sim.flits_delivered", c["flits_delivered"], "count")

    put("workload.tick_s", total_s("workload.tick"), "s")
    put("workload.generated", c["generated"], "count")
    put("metrics.sample_s", total_s("metrics.sample"), "s",
        f"{len(by_name['metrics.sample'])} samples")

    put("snapshot.capture_s", total_s("snapshot.capture"), "s",
        f"{capture_calls} hook calls")
    put("snapshot.captures", c["captures"], "count")
    put("snapshot.duplicates", c["capture_duplicates"], "count")
    put("snapshot.capture_ratio", ratio(c["captures"], capture_calls),
        "ratio", f"{c['captures']}/{capture_calls} hook calls")
    put("snapshot.bytes", c["capture_bytes"], "B")

    put("obs.tick_s", total_s("obs.tick"), "s")
    put("obs.samples", c["obs_samples"], "count")
    put("telemetry.tick_s", total_s("telemetry.tick"), "s")
    put("telemetry.finalize_s", total_s("telemetry.finalize"), "s")

    unattributed = self_by_name["exp.point"] * 1e-9
    put("exp.unattributed_s", unattributed, "s",
        f"of {traced_wall_s:.6f} s traced wall")
    put("exp.span_coverage_pct",
        100.0 * (1 - ratio(unattributed, traced_wall_s)), "%",
        "named spans / traced wall")
    put("exp.trace_overhead_pct",
        100.0 * ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "%",
        f"traced {traced_wall_s:.6f} s vs untraced {untraced_wall_s:.6f} s")

    spans_table = []
    for name in names:
        group = by_name.get(name, [])
        spans_table.append(
            (name, len(group), total_s(name), self_by_name[name] * 1e-9))
    return out, spans_table
