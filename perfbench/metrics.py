"""Metric arithmetic of the figure-level benchmark.

Pure functions over the raw document perfbench_runner writes
(runner.cpp), kept apart from run.py so that test_metrics.py can check
them without building or running the simulator.
"""

import json
import math
import statistics

WORKLOADS = ("fig7", "datacenter", "mixes-detailed")

# The workloads BENCHMARK.json declares. datacenter stays runnable for its
# layer split, but on a shared 4-vCPU host its times drift by about 20%
# over minutes as other tenants' load changes (README.md, Workloads).
CONTRACT_WORKLOADS = ("fig7", "mixes-detailed")

# The paper's 1 GB claims as the footer of goldens/fig7_performance.csv
# states them: "~14% Unison-over-Alloy and ~2% Unison-over-Footprint".
PAPER_UC_OVER_AC = 1.14
PAPER_UC_OVER_FC = 1.02

# Layer reconciliation: the separately measured parts of the traced
# engine time (source, SRAM replay, designs, backend and decorator cost)
# may add up to at most this share of it; what they leave is sim.self.
RECONCILE_LIMIT_PCT = 105.0

FIG7_DESIGNS = ("alloy", "footprint", "unison", "ideal")

# (name, unit, better), in the order BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("acc_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Only metrics every workload defines: a design or backend that one
# workload does not run would read 0 there on every run. Per-design and
# per-backend figures are printed where they exist (per_design()).
PER_LAYER = (
    ("trace.ns_per_access", "ns", "lower"),
    ("trace.share_pct", "%", "lower"),
    ("sim.ns_per_access", "ns", "lower"),
    ("sim.untraced_ns_per_access", "ns", "lower"),
    ("sim.self_ns_per_access", "ns", "lower"),
    ("sim.self_share_pct", "%", "lower"),
    ("sim.decorator_ns_per_access", "ns", "lower"),
    ("sim.parts_pct", "%", "lower"),
    ("sim.tracing_overhead_s", "s", "lower"),
    ("sim.setup_ms", "ms", "lower"),
    ("timer.span_ns", "ns", "lower"),
    ("cache.ns_per_access", "ns", "lower"),
    ("cache.share_pct", "%", "lower"),
    ("cache.l2_miss_pct", "%", "lower"),
    ("core.ns_per_call", "ns", "lower"),
    ("core.share_pct", "%", "lower"),
    ("core.unison.ns_per_call", "ns", "lower"),
    ("core.hit_pct", "%", "higher"),
    ("core.unison.hit_pct", "%", "higher"),
    ("core.unison.wp_accuracy_pct", "%", "higher"),
    ("core.fp_useful_pct", "%", "higher"),
    ("core.offchip_reads_per_miss", "count", "lower"),
    ("core.stacked_bytes_per_access", "B", "lower"),
    ("dram.ns_per_call", "ns", "lower"),
    ("dram.share_pct", "%", "lower"),
    ("dram.offchip.bw_util_pct", "%", "higher"),
    ("dram.offchip.row_hit_pct", "%", "higher"),
    ("dram.offchip.avg_latency_cycles", "cycles", "lower"),
    ("dram.offchip.write_pct", "%", "lower"),
    ("runner.parallel_eff", "ratio", "higher"),
    ("store.insert_ms", "ms", "lower"),
    ("store.lookup_ms", "ms", "lower"),
)


# ------------------------------------------------------------ helpers


def geomean(values):
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty series")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num, den):
    """num / den, or 0.0 when den is 0."""
    return num / den if den else 0.0


def pct(num, den):
    return 100.0 * ratio(num, den)


def spread(values):
    """Distance between the first and third quartile (as
    statistics.quantiles gives them) as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def paper_gap(uc, ac, fc):
    """Mean |ln(sim / paper)| over the Unison/Alloy and Unison/Footprint
    ratios of the 1 GB geometric-mean speedups."""
    return (
        abs(math.log(uc / ac / PAPER_UC_OVER_AC)) + abs(math.log(uc / fc / PAPER_UC_OVER_FC))
    ) / 2


# --------------------------------------------------------------- fig7


def fig7_table(points, results):
    """Fig. 7 speedups over each workload's no-cache point:
    (workload, capacity, {design: speedup}) rows in grid order, then one
    geometric-mean row per capacity, as bench/fig7_performance prints."""
    base = {}
    body = {}
    for point, result in zip(points, results):
        if point["design"] == "nocache":
            base[point["workload"]] = result["uipc"]
        else:
            cells = body.setdefault((point["workload"], point["capacity"]), {})
            cells[point["design"]] = ratio(result["uipc"], base[point["workload"]])
    rows = [(w, c, cells) for (w, c), cells in body.items()]
    capacities = list(dict.fromkeys(c for _, c, _ in rows))
    means = [
        (
            "Geometric Mean",
            cap,
            {d: geomean(cells[d] for _, c, cells in rows if c == cap) for d in FIG7_DESIGNS},
        )
        for cap in capacities
    ]
    return rows + means


def fig7_csv_rows(table):
    return [",".join([w, c] + ["%.2f" % cells[d] for d in FIG7_DESIGNS]) for w, c, cells in table]


def golden_fig7_rows(text):
    """Data rows of goldens/fig7_performance.csv: from its column header
    to the blank line before the paper-reference footer."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("workload,capacity,"))
    rows = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        rows.append(line)
    return rows


def fig7_paper_gap(table):
    cells = next(cells for w, c, cells in table if w == "Geometric Mean" and c == "1GB")
    return paper_gap(cells["unison"], cells["alloy"], cells["footprint"])


# ------------------------------------------------------------- checks


def check_outputs(raw, golden_fig7=None, golden_datacenter=None):
    """{point index: reason} for every point that failed a check. The
    golden arguments are passed at seed 42 only: the text of
    goldens/fig7_performance.csv, the parsed goldens/datacenter.json."""
    points, results = raw["points"], raw["results"]
    failures = {}

    def fail(i, reason):
        failures.setdefault(i, reason)

    for i in raw["mismatched_points"]:
        fail(i, "traced result differs from untraced" if raw["traced"] else "result differs between passes")
    for i in raw.get("store", {}).get("mismatched_points", []):
        fail(i, "store lookup missed or returned a different result")
    for i, r in enumerate(results):
        if not (r["references"] > 0 and r["cycles"] > 0 and 0 < r["uipc"] < math.inf):
            fail(i, "implausible result (no references, cycles or UIPC)")

    if golden_fig7 is not None:
        where = {(p["workload"], p["capacity"], p["design"]): i for i, p in enumerate(points)}
        table = fig7_table(points, results)
        got, want = fig7_csv_rows(table), golden_fig7_rows(golden_fig7)
        if len(got) != len(want):
            fail(0, f"fig7 table has {len(got)} rows, golden {len(want)}")
        for (workload, capacity, _), got_row, want_row in zip(table, got, want):
            got_cells, want_cells = got_row.split(","), want_row.split(",")
            for d, g, w in zip(FIG7_DESIGNS, got_cells[2:], want_cells[2:]):
                if got_cells[:2] == want_cells[:2] and g == w:
                    continue
                reason = f"fig7 {workload}/{capacity}/{d}: {g}, golden {w}"
                if workload == "Geometric Mean":
                    for (_, pc, pd), i in where.items():
                        if pc == capacity and pd == d:
                            fail(i, reason)
                else:
                    fail(where[(workload, capacity, d)], reason)

    if golden_datacenter is not None:
        golden = golden_datacenter["points"]
        if len(golden) != len(results):
            fail(0, f"{len(results)} points, golden {len(golden)}")
        for i, (g, r) in enumerate(zip(golden, results)):
            if g["label"] != points[i]["label"] or g["result"] != r:
                fail(i, "differs from goldens/datacenter.json")
    return failures


# ---------------------------------------------------- end-to-end metrics


def fastest_total(runs_per_point):
    """The sum over points of each point's fastest run. A shared host
    only ever slows a run down, so the fastest run is a point's steadiest
    estimate, and taking it per point lets each point's best run come
    from a different moment of the measuring time."""
    return sum(min(runs) for runs in runs_per_point)


def end_to_end(raw):
    """wall_s is the fastest whole-grid pass where the workload has
    runner threads; a serial grid takes the sum of its points' times."""
    accesses = sum(p["accesses"] for p in raw["points"])
    points_s = fastest_total(raw["point_s"])
    walls = raw["pass_wall_s"]
    return {
        "wall_s": min(walls) if walls else points_s,
        "acc_per_s": accesses / points_s,
        "setup_s": fastest_total(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


# ----------------------------------------------------- per-layer metrics


def layer_times(raw):
    """Host nanoseconds per layer, summed over the traced points, with
    the timer's own cost taken out (calibrate() in runner.cpp):

    - every span reads span_ns more than the work inside it;
    - every decorated call costs its caller *_overhead_ns more than the
      bare call, so the design's spans carry one offchip overhead per
      off-chip call, and the engine time carries all of them;
    - cache is the SRAM replay's ns per access times the accesses;
    - self (scheduler pick and core model) is what the engine time
      leaves after every other part.

    Returns (totals, {design: [ns, calls]}, {backend: [ns, calls]})."""
    cal = raw["calibration"]
    span = cal["span_ns"]
    keys = ("accesses", "run", "trace", "cache", "core", "dram", "decorator", "system")
    t = dict.fromkeys(keys + ("core_calls", "dram_calls"), 0.0)
    core, dram = {}, {}
    for point, tr in zip(raw["points"], raw["traced_run"]["points"]):
        n = tr["next"]["calls"]
        cache_calls = tr["cache"]["calls"]
        offchip_calls = tr["offchip"]["calls"]
        dram_ns = tr["offchip"]["ns"] - offchip_calls * span
        core_ns = (
            tr["cache"]["ns"] - cache_calls * span - dram_ns - offchip_calls * cal["offchip_overhead_ns"]
        )
        t["accesses"] += n
        t["run"] += tr["run_ns"]
        t["trace"] += tr["next"]["ns"] - n * span
        t["cache"] += tr["replay_ns_per_access"] * n
        t["core"] += core_ns
        t["core_calls"] += cache_calls
        t["dram"] += dram_ns
        t["dram_calls"] += offchip_calls
        t["decorator"] += (
            n * cal["next_overhead_ns"]
            + cache_calls * cal["cache_overhead_ns"]
            + offchip_calls * cal["offchip_overhead_ns"]
        )
        t["system"] += tr["system_ns"]
        design = core.setdefault(point["design"], [0.0, 0])
        design[0] += core_ns
        design[1] += cache_calls
        backend = dram.setdefault(point["backend"], [0.0, 0])
        backend[0] += dram_ns
        backend[1] += offchip_calls
    t["parts"] = t["trace"] + t["cache"] + t["core"] + t["dram"] + t["decorator"]
    t["self"] = t["run"] - t["parts"]
    return t, core, dram


def design_hits(points, results):
    """{design: [DRAM-cache hits, DRAM-cache accesses]}."""
    hits = {}
    for point, r in zip(points, results):
        entry = hits.setdefault(point["design"], [0, 0])
        entry[0] += r["cache"]["hits"]
        entry[1] += r["cache"]["reads"] + r["cache"]["writes"]
    return hits


def simulated(points, results):
    """Per-layer metrics the simulation itself counts: deterministic for
    a seed, no host time."""
    s = dict.fromkeys(
        (
            "l2_weighted",
            "references",
            "wp_weighted",
            "fp_fetched",
            "fp_untouched",
            "offchip_reads",
            "misses",
            "stacked_bytes",
            "accesses",
            "offchip_bytes",
            "peak_bytes",
            "row_hits",
            "row_total",
            "latency_weighted",
            "latency_misses",
            "offchip_writes",
            "offchip_total",
        ),
        0.0,
    )
    for point, r in zip(points, results):
        c, off, stacked = r["cache"], r["offchip"], r["stacked"]
        accesses = c["reads"] + c["writes"]
        if point["design"] == "unison":
            s["wp_weighted"] += r["wpAccuracyPercent"] * accesses
        if point["design"] != "nocache":
            s["offchip_reads"] += off["reads"]
            s["misses"] += c["misses"]
            s["stacked_bytes"] += stacked["bytesRead"] + stacked["bytesWritten"]
            s["accesses"] += accesses
        s["l2_weighted"] += r["l2MissPercent"] * r["references"]
        s["references"] += r["references"]
        s["fp_fetched"] += c["fpFetched"]
        s["fp_untouched"] += c["fpFetchedUntouched"]
        s["offchip_bytes"] += off["bytesRead"] + off["bytesWritten"]
        s["peak_bytes"] += r["cycles"] * point["offchip_peak_bytes_per_cycle"]
        s["row_hits"] += off["rowHits"]
        s["row_total"] += off["rowHits"] + off["rowConflicts"] + off["rowEmpty"]
        s["latency_weighted"] += r["avgMemLatency"] * c["misses"]
        s["latency_misses"] += c["misses"]
        s["offchip_writes"] += off["writes"]
        s["offchip_total"] += off["reads"] + off["writes"]

    hits = design_hits(points, results)
    cached = [h for d, h in hits.items() if d != "nocache"]
    unison = hits.get("unison", [0, 0])
    return {
        "cache.l2_miss_pct": ratio(s["l2_weighted"], s["references"]),
        "core.hit_pct": pct(sum(h for h, _ in cached), sum(a for _, a in cached)),
        "core.unison.hit_pct": pct(*unison),
        "core.unison.wp_accuracy_pct": ratio(s["wp_weighted"], unison[1]),
        "core.fp_useful_pct": pct(s["fp_fetched"] - s["fp_untouched"], s["fp_fetched"]),
        "core.offchip_reads_per_miss": ratio(s["offchip_reads"], s["misses"]),
        "core.stacked_bytes_per_access": ratio(s["stacked_bytes"], s["accesses"]),
        "dram.offchip.bw_util_pct": pct(s["offchip_bytes"], s["peak_bytes"]),
        "dram.offchip.row_hit_pct": pct(s["row_hits"], s["row_total"]),
        "dram.offchip.avg_latency_cycles": ratio(s["latency_weighted"], s["latency_misses"]),
        "dram.offchip.write_pct": pct(s["offchip_writes"], s["offchip_total"]),
    }


def per_layer(raw):
    t, core, _ = layer_times(raw)
    n, run = t["accesses"], t["run"]
    traced = raw["traced_run"]
    untraced_s = sum(traced["untraced_point_s"])
    unison = core.get("unison", [0.0, 0])
    out = {
        "trace.ns_per_access": ratio(t["trace"], n),
        "trace.share_pct": pct(t["trace"], run),
        "sim.ns_per_access": ratio(run, n),
        "sim.untraced_ns_per_access": ratio(untraced_s * 1e9, sum(p["accesses"] for p in raw["points"])),
        "sim.self_ns_per_access": ratio(t["self"], n),
        "sim.self_share_pct": pct(t["self"], run),
        "sim.decorator_ns_per_access": ratio(t["decorator"], n),
        "sim.parts_pct": pct(t["parts"], run),
        "sim.tracing_overhead_s": traced["traced_wall_s"] - traced["untraced_wall_s"],
        "sim.setup_ms": t["system"] / 1e6,
        "timer.span_ns": raw["calibration"]["span_ns"],
        "cache.ns_per_access": ratio(t["cache"], n),
        "cache.share_pct": pct(t["cache"], run),
        "core.ns_per_call": ratio(t["core"], t["core_calls"]),
        "core.share_pct": pct(t["core"], run),
        "core.unison.ns_per_call": ratio(*unison),
        "dram.ns_per_call": ratio(t["dram"], t["dram_calls"]),
        "dram.share_pct": pct(t["dram"], run),
        "runner.parallel_eff": ratio(untraced_s, traced["untraced_wall_s"] * raw["threads"]),
        "store.insert_ms": statistics.median(raw["store"]["insert_ms"]),
        "store.lookup_ms": statistics.median(raw["store"]["lookup_ms"]),
    }
    out.update(simulated(raw["points"], raw["results"]))
    return out


def per_design(raw):
    """Per-design and per-backend figures of a traced run, for the
    designs and backends this workload runs only."""
    _, core, dram = layer_times(raw)
    out = {}
    for design, (ns, calls) in core.items():
        out[f"core.{design}.ns_per_call"] = {"value": ratio(ns, calls), "unit": "ns"}
    for design, (hits, accesses) in design_hits(raw["points"], raw["results"]).items():
        out[f"core.{design}.hit_pct"] = {"value": pct(hits, accesses), "unit": "%"}
    for backend, (ns, calls) in dram.items():
        out[f"dram.{backend}.ns_per_call"] = {"value": ratio(ns, calls), "unit": "ns"}
    if "detailed" in dram:
        queues = [r.get("offchipQueue", {}) for r in raw["results"]]
        out["dram.offchip.write_drains"] = {
            "value": sum(q.get("writeDrains", 0) for q in queues),
            "unit": "count",
        }
        out["dram.offchip.reorders"] = {
            "value": sum(q.get("frfcfsReorders", 0) for q in queues),
            "unit": "count",
        }
    return out


# ------------------------------------------------------------- reports


def make_report(raw, host, failures):
    """The full record of one run: host stamp, the contract metrics,
    the printed-only figures, and every failed point with its reason."""
    traced = bool(raw["traced"])
    values = per_layer(raw) if traced else end_to_end(raw)
    spec = PER_LAYER if traced else END_TO_END
    attempted = len(raw["points"])
    extra = {"failed_pct": {"value": pct(len(failures), attempted), "unit": "%"}}
    if raw["workload"] == "fig7":
        table = fig7_table(raw["points"], raw["results"])
        extra["paper_gap"] = {"value": fig7_paper_gap(table), "unit": "ln-ratio"}
    if traced:
        extra.update(per_design(raw))
        for key in ("next_overhead_ns", "cache_overhead_ns", "offchip_overhead_ns"):
            extra[f"timer.{key}"] = {"value": raw["calibration"][key], "unit": "ns"}
    else:
        extra["runs_per_point"] = {"value": min(len(runs) for runs in raw["point_s"]), "unit": "count"}
    return {
        "schema": "perfbench-report/1",
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": int(traced),
        "host": host,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
        "extra": extra,
        "attempted": attempted,
        "failed": len(failures),
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
    }


def contract_line(report):
    """The benchmark's last line of standard output."""
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def write_report(path, report):
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def read_report(path):
    with open(path) as f:
        return json.load(f)
