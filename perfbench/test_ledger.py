"""Tests of the benchmark's own helpers.

    python3 -m unittest discover perfbench
"""

import json
import unittest
from pathlib import Path

import ledger

NAMES = ["exp.point", "exp.construct", "workload.tick", "sim.step",
         "core.detect", "snapshot.capture", "telemetry.tick", "obs.tick",
         "metrics.sample", "exp.window", "obs.finalize", "telemetry.finalize",
         "exp.check", "exp.teardown"]


def span(name, start, end, parent=-1, flags=0):
    return (start, end, parent, 0, NAMES.index(name), 0, flags)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.percentile(values, 0.5), 50)
        self.assertEqual(ledger.percentile(values, 0.99), 99)
        self.assertEqual(ledger.percentile([7], 0.5), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(ledger.tail(list(range(1000)))[0], "p99")
        self.assertEqual(ledger.tail(list(range(999)))[0], "p90")
        self.assertEqual(ledger.tail(list(range(100000)))[0], "p99.99")
        self.assertEqual(ledger.tail(list(range(20)))[0], "p50")

    def test_tail_falls_back_to_max(self):
        label, value, n = ledger.tail([3.0, 9.0, 1.0])
        self.assertEqual((label, value, n), ("max", 9.0, 3))
        self.assertEqual(ledger.tail(list(range(19)))[0], "max")

    def test_tail_reports_sample_count_and_cap(self):
        label, value, n = ledger.tail(list(range(100000)), at_most=0.99)
        self.assertEqual((label, n), ("p99", 100000))
        self.assertEqual(value, ledger.percentile(list(range(100000)), 0.99))


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [
            span("exp.point", 0, 100),
            span("sim.step", 10, 40, parent=0),
            span("core.detect", 30, 60, parent=0),
            span("exp.teardown", 90, 120, parent=0),  # ends past its parent
        ]
        self.assertEqual(ledger.self_times(spans), [40, 30, 30, 30])

    def test_only_direct_children_are_subtracted(self):
        spans = [
            span("exp.point", 0, 100),
            span("core.detect", 20, 80, parent=0),
            span("snapshot.capture", 30, 50, parent=1),
        ]
        self.assertEqual(ledger.self_times(spans), [40, 40, 20])

    def test_covered(self):
        self.assertEqual(ledger.covered([], 0, 10), 0)
        self.assertEqual(ledger.covered([(2, 4), (3, 8), (9, 20)], 0, 10), 7)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for name in ("core.detect_s", "sim.step_p99_us", "exp.trace-pct",
                     "9lives", "a" * 64):
            self.assertTrue(ledger.valid_metric_name(name), name)
        for name in ("", "_x", ".x", "core detect", "core/detect", "a" * 65,
                     "café", "x\n"):
            self.assertFalse(ledger.valid_metric_name(name), name)

    def test_ledger_emits_exactly_the_declared_per_layer_metrics(self):
        spans = [
            span("exp.point", 0, 1000),
            span("exp.construct", 0, 100, parent=0),
            span("sim.step", 100, 400, parent=0),
            span("core.detect", 400, 700, parent=0, flags=ledger.FLAG_PASS),
            span("snapshot.capture", 450, 500, parent=3),
            span("exp.check", 700, 800, parent=0),
            span("exp.teardown", 900, 1000, parent=0),
        ]
        phase_s = {"deliver": 0, "route": 0, "transmit": 0, "detector": 0,
                   "recovery": 1e-8}
        counts = dict.fromkeys(
            ["passes", "skipped_passes", "pressure_passes", "closure_sum",
             "knots_found", "deadlocks", "transient_knots", "density_cycles",
             "density_capped", "blocked_sum", "active_channels_sum",
             "delivered", "flits_delivered", "generated", "captures",
             "capture_duplicates", "capture_bytes", "obs_samples"],
            0)
        layers, _ = ledger.layer_ledger(spans, NAMES, phase_s, counts,
                                        900e-9, 1000e-9)
        self.assertAlmostEqual(layers["exp.unattributed_s"][0], 100e-9)
        self.assertAlmostEqual(layers["core.self_s"][0], 250e-9 - 1e-8)
        self.assertAlmostEqual(layers["exp.trace_overhead_pct"][0], -10.0)
        self.assertEqual(layers["core.pass_tail_ms"][2], "max of n=1")
        # Cycles and capture hook calls are counted from the spans.
        self.assertEqual(layers["sim.blocked_mean"][2], "0/1 cycles")
        self.assertEqual(layers["snapshot.capture_ratio"][2], "0/1 hook calls")

        root = Path(__file__).resolve().parent.parent
        bench = json.loads((root / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(declared, {k: v[1] for k, v in layers.items()})
        for name in list(declared) + [m["name"] for m in bench["end_to_end"]]:
            self.assertTrue(ledger.valid_metric_name(name), name)


class Accounting(unittest.TestCase):
    def test_failed_execution_counts_all_its_points(self):
        runs = [{"attempted": 17, "failed": 0}, None,
                {"attempted": 5, "failed": 2}]
        self.assertEqual(ledger.account(runs, points=5), (27, 7))

    def test_all_clean(self):
        self.assertEqual(ledger.account([{"attempted": 1, "failed": 0}] * 3, 1),
                         (3, 0))


if __name__ == "__main__":
    unittest.main()
