#!/usr/bin/env python3
"""Compare a fresh perf_engine JSON report against the committed
trajectory (BENCH_engine.json) and emit non-fatal warnings for >20%
regressions: throughput that falls, or 1 GB set-up time that rises.

Usage: perf_check.py BASELINE.json CURRENT.json

Throughput only compares within one class of host: when the two
reports' `host` objects (vCPUs, CPU model, compiler, build type,
transparent-huge-page mode) differ, or a report has none, the script
prints a notice instead.

Exit status is always 0: CI perf numbers come from unpinned shared
runners, so a regression here is a signal to look, not a build
failure. Warnings use the GitHub Actions ::warning:: syntax so they
surface on the workflow summary.
"""

import json
import sys

THRESHOLD = 0.20


def rates(report):
    out = {}
    for entry in report.get("engine", []):
        out["engine/" + entry["design"]] = entry["accesses_per_sec"]
    if "replay" in report:
        out["replay"] = report["replay"]["accesses_per_sec"]
    # perf_engine/3 additions: the multiprogrammed 8-core mix and the
    # warm-checkpoint-reuse sweep with its cold control.
    if "mix_engine" in report:
        out["mix_engine"] = report["mix_engine"]["accesses_per_sec"]
    # perf_engine/4 addition: the same spec through both memory
    # backends. The fast/detailed throughputs are tracked separately,
    # and the ratio guards the detailed controller's relative cost.
    if "backend" in report:
        out["backend/fast"] = report["backend"]["fast_per_sec"]
        out["backend/detailed"] = report["backend"]["detailed_per_sec"]
    # perf_engine/5 addition: the datacenter-scale ycsb-kv arms, keyed
    # by core count. Only throughput is compared; the vm_rss_kb /
    # vm_hwm_kb fields are a whole-process proxy too noisy to gate on.
    for entry in report.get("datacenter", []):
        out["datacenter/c%d" % entry["cores"]] = entry[
            "accesses_per_sec"
        ]
    if "ckpt_sweep" in report:
        out["ckpt_sweep"] = report["ckpt_sweep"]["accesses_per_sec"]
    if "ckpt_cold" in report:
        out["ckpt_cold"] = report["ckpt_cold"]["accesses_per_sec"]
    if "sweep" in report:
        out["sweep"] = report["sweep"]["accesses_per_sec"]
    return out


def setup_seconds(report):
    # perf_engine/6 addition: median seconds to build a 1 GB System,
    # per design. Lower is better.
    return {
        "setup/" + entry["design"]: entry["seconds"]
        for entry in report.get("setup", [])
    }


def compare(base, cur, unit, fmt, higher_is_better):
    """Print one line per key both reports have; warn on, and count,
    the ones more than THRESHOLD worse."""
    regressions = 0
    for key, base_value in sorted(base.items()):
        cur_value = cur.get(key)
        if cur_value is None or base_value <= 0:
            continue
        change = cur_value / base_value - 1.0
        worse = -change if higher_is_better else change
        marker = ""
        if worse > THRESHOLD:
            regressions += 1
            marker = "  <-- REGRESSION"
            print(
                f"::warning::perf_engine {key}: "
                f"{cur_value:{fmt}} {unit} vs committed "
                f"{base_value:{fmt}} ({change:+.1%})"
            )
        print(
            f"{key:30s} committed {base_value:>14{fmt}}  "
            f"current {cur_value:>14{fmt}}  {change:+7.1%}{marker}"
        )
    return regressions


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} BASELINE.json CURRENT.json")
        return 0
    try:
        with open(sys.argv[1]) as f:
            base_report = json.load(f)
        with open(sys.argv[2]) as f:
            cur_report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"::warning::perf_check: cannot compare reports: {e}")
        return 0

    # perf_engine/6 stamps the host; throughput from different hosts
    # (or from a report without a stamp) says nothing about the code.
    base_host = base_report.get("host")
    cur_host = cur_report.get("host")
    if base_host is None or base_host != cur_host:
        print(
            "::notice::perf_check: reports come from different hosts, "
            "not comparing throughput"
        )
        print(f"  committed host: {json.dumps(base_host)}")
        print(f"  current host:   {json.dumps(cur_host)}")
        return 0

    regressions = compare(
        rates(base_report), rates(cur_report), "acc/s", ",.0f", True
    ) + compare(
        setup_seconds(base_report), setup_seconds(cur_report), "s",
        ".4f", False,
    )

    if regressions == 0:
        print("perf_check: no >20% regressions vs committed trajectory")
    else:
        print(
            f"perf_check: {regressions} measurement(s) regressed >20% "
            "(non-fatal; CI runners are unpinned)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
