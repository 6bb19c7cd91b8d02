"""Tests of the benchmark's metric code (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent


def point(workload, capacity, design, backend="fast"):
    return {
        "label": f"{workload}/{capacity}/{design}",
        "workload": workload,
        "capacity": capacity,
        "design": design,
        "backend": backend,
        "cores": 16,
        "accesses": 1000,
        "offchip_peak_bytes_per_cycle": 4.0,
    }


def result(uipc, **cache):
    counters = dict.fromkeys(("reads", "writes", "hits", "misses", "fpFetched", "fpFetchedUntouched"), 0)
    counters.update(cache)
    pool = dict.fromkeys(
        ("reads", "writes", "rowHits", "rowConflicts", "rowEmpty", "bytesRead", "bytesWritten"), 0
    )
    return {
        "uipc": uipc,
        "references": 100,
        "cycles": 1000,
        "l2MissPercent": 50.0,
        "cache": counters,
        "offchip": dict(pool),
        "stacked": dict(pool),
        "avgMemLatency": 0.0,
        "wpAccuracyPercent": 0.0,
    }


def fig7_grid():
    """Two workloads at one capacity; speedups A = 2, 1, 3, 4 and
    B = 1, 2, 1.5, 4 for alloy, footprint, unison, ideal."""
    points, results = [], []
    for workload, base, uipcs in (("A", 1.0, (2, 1, 3, 4)), ("B", 2.0, (2, 4, 3, 8))):
        points.append(point(workload, "1GB", "nocache"))
        results.append(result(base))
        for design, uipc in zip(metrics.FIG7_DESIGNS, uipcs):
            points.append(point(workload, "1GB", design))
            results.append(result(float(uipc)))
    return points, results


GOLDEN_FIG7 = """
== Figure 7 ==
workload,capacity,Alloy,Footprint,Unison,Ideal
A,1GB,2.00,1.00,3.00,4.00
B,1GB,1.00,2.00,1.50,4.00
Geometric Mean,1GB,1.41,1.41,2.12,4.00

Paper reference: footer.
"""


class PaperGapTest(unittest.TestCase):
    def test_zero_at_the_papers_ratios(self):
        ac = 2.0
        uc = ac * metrics.PAPER_UC_OVER_AC
        fc = uc / metrics.PAPER_UC_OVER_FC
        self.assertAlmostEqual(metrics.paper_gap(uc, ac, fc), 0.0, places=12)

    def test_golden_rounded_geomeans(self):
        # goldens/fig7_performance.csv, 1 GB geometric means:
        # Alloy 3.43, Footprint 1.82, Unison 2.13.
        self.assertAlmostEqual(metrics.paper_gap(2.13, 3.43, 1.82), 0.372, delta=0.001)

    def test_golden_footer_states_the_paper_ratios(self):
        text = (ROOT / "goldens" / "fig7_performance.csv").read_text()
        self.assertIn("~14% Unison-over-Alloy", text)
        self.assertIn("~2% Unison-over-Footprint", text)
        self.assertEqual(len(metrics.golden_fig7_rows(text)), 24)

    def test_from_a_table(self):
        points, results = fig7_grid()
        gap = metrics.fig7_paper_gap(metrics.fig7_table(points, results))
        # Geomeans: unison sqrt(4.5), alloy and footprint sqrt(2).
        want = (abs(math.log(1.5 / 1.14)) + abs(math.log(1.5 / 1.02))) / 2
        self.assertAlmostEqual(gap, want, places=12)


class HelperTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(metrics.geomean(iter([3.0])), 3.0)
        with self.assertRaises(ValueError):
            metrics.geomean([])

    def test_ratio_and_pct(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(3, 0), 0.0)
        self.assertEqual(metrics.pct(1, 4), 25.0)
        self.assertEqual(metrics.pct(1, 0), 0.0)

    def test_spread(self):
        # statistics.quantiles(1..10, n=4) gives 2.75 and 8.25.
        self.assertAlmostEqual(metrics.spread([float(v) for v in range(1, 11)]), 1.0)
        self.assertEqual(metrics.spread([5.0] * 10), 0.0)


class OutputCheckTest(unittest.TestCase):
    def test_table_rows_match_the_golden_layout(self):
        points, results = fig7_grid()
        rows = metrics.fig7_csv_rows(metrics.fig7_table(points, results))
        self.assertEqual(rows, metrics.golden_fig7_rows(GOLDEN_FIG7))

    def test_fig7_golden_flags_only_the_cell_that_differs(self):
        points, results = fig7_grid()
        raw = {"traced": False, "points": points, "results": results, "mismatched_points": []}
        self.assertEqual(metrics.check_outputs(raw, GOLDEN_FIG7), {})
        bad = GOLDEN_FIG7.replace("B,1GB,1.00,2.00", "B,1GB,1.00,2.01")
        self.assertEqual(list(metrics.check_outputs(raw, bad)), [7])

    def test_mismatches_and_implausible_results_fail(self):
        points, results = fig7_grid()
        results[3]["uipc"] = 0.0
        raw = {"traced": True, "points": points, "results": results, "mismatched_points": [1]}
        failures = metrics.check_outputs(raw)
        self.assertEqual(sorted(failures), [1, 3])
        self.assertIn("traced", failures[1])

    def test_datacenter_results_must_equal_the_golden(self):
        points = [point("dc", "512MB", "unison"), point("dc2", "512MB", "unison")]
        results = [result(0.5, hits=3), result(0.25, hits=4)]
        raw = {"traced": False, "points": points, "results": results, "mismatched_points": []}
        golden = {
            "points": [
                {"label": p["label"], "result": json.loads(json.dumps(r))} for p, r in zip(points, results)
            ]
        }
        self.assertEqual(metrics.check_outputs(raw, None, golden), {})
        golden["points"][1]["result"]["cache"]["hits"] = 5
        self.assertEqual(list(metrics.check_outputs(raw, None, golden)), [1])


def traced_raw(run_ns):
    """One alloy point whose true layer times are trace 2000 ns, SRAM
    300 ns, design 1000 ns and backend 500 ns, under a 10 ns span cost
    and 5 ns per decorated call (100 accesses, 20 design calls and 10
    backend calls: 650 ns of decorators)."""
    return {
        "workload": "fig7",
        "seed": 7,
        "traced": True,
        "threads": 2,
        "points": [point("A", "1GB", "alloy")],
        "results": [result(1.0, reads=20, hits=15, misses=5)],
        "mismatched_points": [],
        "calibration": {
            "span_ns": 10.0,
            "next_overhead_ns": 5.0,
            "cache_overhead_ns": 5.0,
            "offchip_overhead_ns": 5.0,
        },
        "traced_run": {
            "untraced_wall_s": 2.0,
            "untraced_point_s": [3.0],
            "traced_wall_s": 2.5,
            "points": [
                {
                    "next": {"calls": 100, "ns": 100 * 10 + 2000},
                    "cache": {"calls": 20, "ns": 20 * 10 + 1000 + 500 + 10 * 5},
                    "offchip": {"calls": 10, "ns": 10 * 10 + 500},
                    "system_ns": 4_000_000,
                    "run_ns": run_ns,
                    "replay_ns_per_access": 3.0,
                }
            ],
        },
        "store": {"insert_ms": [1.0, 2.0, 3.0], "lookup_ms": [0.5], "mismatched_points": []},
    }


class LayerTest(unittest.TestCase):
    def test_layers_and_self_time(self):
        m = metrics.per_layer(traced_raw(run_ns=6000))
        self.assertEqual(set(m), {name for name, _, _ in metrics.PER_LAYER})
        self.assertAlmostEqual(m["trace.ns_per_access"], 20.0)
        self.assertAlmostEqual(m["cache.ns_per_access"], 3.0)
        self.assertAlmostEqual(m["core.ns_per_call"], 50.0)
        self.assertEqual(m["core.unison.ns_per_call"], 0.0)
        self.assertAlmostEqual(m["dram.ns_per_call"], 50.0)
        self.assertAlmostEqual(m["sim.decorator_ns_per_access"], 6.5)
        self.assertAlmostEqual(m["sim.ns_per_access"], 60.0)
        self.assertAlmostEqual(m["sim.self_ns_per_access"], 15.5)
        self.assertAlmostEqual(m["sim.parts_pct"], 100 * 4450 / 6000)
        shares = sum(
            m[k]
            for k in ("trace.share_pct", "cache.share_pct", "core.share_pct", "dram.share_pct", "sim.self_share_pct")
        )
        self.assertAlmostEqual(shares + 100 * 650 / 6000, 100.0)
        self.assertAlmostEqual(m["sim.untraced_ns_per_access"], 3e6)
        self.assertAlmostEqual(m["sim.tracing_overhead_s"], 0.5)
        self.assertAlmostEqual(m["sim.setup_ms"], 4.0)
        self.assertAlmostEqual(m["runner.parallel_eff"], 0.75)
        self.assertEqual(m["store.insert_ms"], 2.0)
        self.assertAlmostEqual(m["core.hit_pct"], 75.0)

    def test_parts_exceeding_the_engine_time_show(self):
        m = metrics.per_layer(traced_raw(run_ns=4000))
        self.assertAlmostEqual(m["sim.parts_pct"], 100 * 4450 / 4000)
        self.assertLess(m["sim.self_ns_per_access"], 0.0)

    def test_per_design_figures_only_for_what_ran(self):
        extra = metrics.per_design(traced_raw(run_ns=6000))
        self.assertEqual(sorted(extra), ["core.alloy.hit_pct", "core.alloy.ns_per_call", "dram.fast.ns_per_call"])
        self.assertAlmostEqual(extra["core.alloy.ns_per_call"]["value"], 50.0)


class ReportTest(unittest.TestCase):
    def untraced_raw(self):
        points, results = fig7_grid()
        return {
            "workload": "fig7",
            "seed": 42,
            "traced": False,
            "threads": 2,
            "points": points,
            "results": results,
            "mismatched_points": [],
            "setup_s": [[0.03, 0.01, 0.02]] * 10,
            "point_s": [[1.0, 0.5]] * 9 + [[0.5, 1.5]],
            "pass_wall_s": [4.0, 3.0],
            "peak_rss_kb": 2048,
        }

    def test_end_to_end(self):
        m = metrics.end_to_end(self.untraced_raw())
        want = {"wall_s": 3.0, "acc_per_s": 2000.0, "setup_s": 0.1, "peak_rss_mb": 2.0}
        self.assertEqual(set(m), set(want))
        for name, value in want.items():
            self.assertAlmostEqual(m[name], value, msg=name)

    def test_serial_wall_is_the_sum_of_each_points_fastest_run(self):
        raw = dict(self.untraced_raw(), pass_wall_s=[])
        self.assertAlmostEqual(metrics.end_to_end(raw)["wall_s"], 5.0)

    def test_report_round_trip(self):
        report = metrics.make_report(self.untraced_raw(), {"nproc": 4, "cpu": "x"}, {3: "why"})
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "report.json"
            metrics.write_report(path, report)
            self.assertEqual(metrics.read_report(path), report)
        line = metrics.contract_line(report)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (10, 1))
        self.assertEqual(list(line["metrics"]), [name for name, _, _ in metrics.END_TO_END])
        self.assertEqual(report["extra"]["failed_pct"]["value"], 10.0)
        self.assertIn("paper_gap", report["extra"])

    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(metrics.CONTRACT_WORKLOADS))
        self.assertTrue(set(metrics.CONTRACT_WORKLOADS) <= set(metrics.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(metrics.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
