#!/usr/bin/env python3
"""Figure-level benchmark of the Unison Cache simulator.

Builds perfbench_runner (runner.cpp) from the checkout's own sources
into .bench_build/, runs one workload, checks its outputs and prints a
report whose last line is one JSON object with the keys correct,
attempted, failed and metrics:

    python3 perfbench/run.py --workload fig7 --seed 42 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
README.md beside this file describes the workloads and every metric.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
RUNNER = CMAKE_DIR / "perfbench_runner"
BUILD_TIMEOUT_S = 840
# A built run must end within 180 s, report included.
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """Keep compiler and runner temporaries inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_logged(cmd, timeout):
    """Run a step with its output on stderr: stdout carries the result."""
    try:
        subprocess.run(
            cmd, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=timeout, env=child_env()
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"{' '.join(cmd)}: {e}")


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources in {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", str(CMAKE_DIR), "-j", jobs], BUILD_TIMEOUT_S)


def run_runner(args):
    raw_path = BUILD_DIR / f"raw-{os.getpid()}.json"
    scratch = BUILD_DIR / f"store-scratch-{os.getpid()}"
    cmd = [
        str(RUNNER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(raw_path),
        "--scratch", str(scratch),
    ]
    try:
        subprocess.run(
            cmd, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=RUNNER_TIMEOUT_S, env=child_env()
        )
        with open(raw_path) as f:
            return json.load(f)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        fail(f"runner failed: {e}")
    finally:
        raw_path.unlink(missing_ok=True)
        shutil.rmtree(scratch, ignore_errors=True)


def goldens(workload, seed):
    """The golden files that pin this workload's results: seed 42 only."""
    try:
        if seed == 42 and workload == "fig7":
            return (ROOT / "goldens" / "fig7_performance.csv").read_text(), None
        if seed == 42 and workload == "datacenter":
            return None, json.loads((ROOT / "goldens" / "datacenter.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read golden: {e}")
    return None, None


# ------------------------------------------------------------ host stamp


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree ("none" if not),
    read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest():
    """SHA-256 prefix over src/ names and contents: identifies the
    simulated code where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(raw):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "code_version": raw["build"]["code_version"],
        "seed": raw["seed"],
        "runner_threads": raw["threads"],
    }


# ---------------------------------------------------------------- output


def print_report(report, raw):
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    print("host " + " ".join(f"{k}={v}" for k, v in report["host"].items()))
    spec = metrics.PER_LAYER if report["trace"] else metrics.END_TO_END
    for name, unit, better in spec:
        value = report["metrics"][name]["value"]
        print(f"  {name:<34} {value:>18.6f} {unit:<7} ({better} is better)")
    for name, m in report["extra"].items():
        print(f"  {name:<34} {m['value']:>18.6f} {m['unit']}")
    if report["workload"] == "fig7":
        table = metrics.fig7_table(raw["points"], raw["results"])
        gm = next(c for w, cap, c in table if w == "Geometric Mean" and cap == "1GB")
        print(
            f"  paper_gap inputs: UC/AC {gm['unison'] / gm['alloy']:.3f} (paper "
            f"{metrics.PAPER_UC_OVER_AC}), UC/FC {gm['unison'] / gm['footprint']:.3f} "
            f"(paper {metrics.PAPER_UC_OVER_FC})"
        )
    if report["trace"]:
        m = {name: v["value"] for name, v in report["metrics"].items()}
        parts = m["sim.parts_pct"]
        verdict = "ok" if parts <= metrics.RECONCILE_LIMIT_PCT else "NOT RECONCILED"
        decorator = metrics.pct(m["sim.decorator_ns_per_access"], m["sim.ns_per_access"])
        print(
            f"  reconciliation: trace {m['trace.share_pct']:.1f}% + cache {m['cache.share_pct']:.1f}% "
            f"+ core {m['core.share_pct']:.1f}% + dram {m['dram.share_pct']:.1f}% + decorators "
            f"{decorator:.1f}% = {parts:.1f}% of the traced engine time (limit "
            f"{metrics.RECONCILE_LIMIT_PCT:.0f}%): {verdict}; sim.self is the remaining "
            f"{m['sim.self_share_pct']:.1f}%"
        )
        tr = raw["traced_run"]
        print(
            f"  timer span {m['timer.span_ns']:.1f} ns; tracing overhead "
            f"{m['sim.tracing_overhead_s']:+.3f} s (traced {tr['traced_wall_s']:.3f} s, "
            f"untraced {tr['untraced_wall_s']:.3f} s)"
        )
    print(f"  failed points: {report['failed']} of {report['attempted']}")
    for i, reason in report["failures"].items():
        print(f"    {raw['points'][int(i)]['label']}: {reason}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    raw = run_runner(args)
    failures = metrics.check_outputs(raw, *goldens(args.workload, args.seed))
    report = metrics.make_report(raw, host_stamp(raw), failures)
    reports = BUILD_DIR / "reports"
    reports.mkdir(exist_ok=True)
    metrics.write_report(reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", report)
    print_report(report, raw)
    print(json.dumps(metrics.contract_line(report)), flush=True)


if __name__ == "__main__":
    main()
