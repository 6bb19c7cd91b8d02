#!/usr/bin/env bash
# Byte-compare every committed golden in goldens/ against a fresh run:
# the seven paper-figure bench CSVs, the smoke spec and the quick
# consolidation mixes under the detailed memory backend, and the
# datacenter figure. Any change to simulated behaviour -- tag scan
# order, victim choice, DRAM timing, fetch policy, the timing loop --
# shows up as a diff here.
#
# Usage:
#   scripts/check_goldens.sh <build-dir>            # compare
#   scripts/check_goldens.sh <build-dir> --update   # regenerate goldens
#
# Output is bit-identical for any --threads, so THREADS (default 2)
# only affects wall-clock.
set -euo pipefail

build="${1:?usage: check_goldens.sh <build-dir> [--update]}"
mode="${2:-}"
threads="${THREADS:-2}"
root="$(cd "$(dirname "$0")/.." && pwd)"

rc=0

# check <golden file> <command...>: the command writes the output to
# the path in $out.
check() {
    local golden="$root/goldens/$1"
    shift
    out="$(mktemp)"
    "$@" 2>/dev/null
    if [ "$mode" = "--update" ]; then
        mv "$out" "$golden"
        echo "updated $golden"
    elif cmp -s "$golden" "$out"; then
        echo "OK       $(basename "$golden")"
        rm -f "$out"
    else
        echo "DIFFERS  $(basename "$golden")"
        diff "$golden" "$out" | head -20 || true
        rm -f "$out"
        rc=1
    fi
}

bench_csv() {
    "$build/$1" --quick --seed 42 --threads "$threads" --csv > "$out"
}

for bench in fig5_associativity fig6_missratio fig7_performance \
             fig8_tpch table5_predictors ablation_unison mixes; do
    check "$bench.csv" bench_csv "$bench"
done

smoke_detailed() {
    "$build/unison_sim" --spec "$root/specs/smoke.json" \
        --memory-backend detailed --format json --out "$out"
}
check smoke_detailed.json smoke_detailed

# The one golden that works the detailed controller's write queues:
# watermark drains and FR-FCFS reorders, not only starvation drains.
mixes_detailed() {
    "$build/unison_sim" --figure mixes --quick --memory-backend detailed \
        --threads "$threads" --format json --out "$out"
}
check mixes_detailed.json mixes_detailed

datacenter() {
    "$build/unison_sim" --figure datacenter --quick --threads "$threads" \
        --format json --out "$out"
}
check datacenter.json datacenter

exit $rc
