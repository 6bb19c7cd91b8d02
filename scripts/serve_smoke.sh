#!/usr/bin/env bash
# End-to-end smoke of the sweep-serving subsystem, driven through the
# real binary and a real unix socket:
#
#  1. `submit` round-trips byte-identically with a direct `--spec` run;
#  2. a repeated submit is PURE cache hits -- zero simulation,
#     asserted on the store counters the client prints;
#  3. `store gc` under a generous budget evicts nothing;
#  4. a spec with an out-of-range knob is refused (exit 4, the range
#     in the message), one the design's validation refuses is a usage
#     error (exit 2, the knob in the message), an unknown --format is
#     a usage error before anything is submitted, and the server
#     keeps serving;
#  5. a server killed with SIGKILL mid-sweep loses nothing that
#     reached the store: a restarted server completes the resubmitted
#     sweep with >= 1 store hit and byte-identical output;
#  6. a graceful shutdown drains and exits 0.
#
# Usage: serve_smoke.sh <unison_sim> <smoke.json> <convergence.json> <workdir>
set -euo pipefail

SIM=$(readlink -f "$1")
SMOKE=$(readlink -f "$2")
CONV=$(readlink -f "$3")
WORK=$4

rm -rf "$WORK"
mkdir -p "$WORK"
# Run from the work dir so the socket path stays far below the
# sun_path limit (108 bytes) regardless of where the build tree lives.
cd "$WORK"

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

objects() { ls store/objects/*.res 2>/dev/null | wc -l; }

wait_ready() {
  for _ in $(seq 1 100); do
    if "$SIM" submit --connect sweep.sock --ping >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  fail "server never answered a ping"
}

# ------------------------------------------------------ golden runs
"$SIM" --spec "$SMOKE" --format json --out direct_smoke.json \
    2> direct_smoke.log
"$SIM" --spec "$CONV" --format json --out direct_conv.json \
    2> direct_conv.log

# ------------------------- serve + double submit: second is all hits
"$SIM" serve --listen sweep.sock --store store > serve1.log 2>&1 &
SERVER=$!
wait_ready

"$SIM" submit --connect sweep.sock --spec "$SMOKE" \
    --out sub1.json 2> sub1.log
"$SIM" submit --connect sweep.sock --spec "$SMOKE" \
    --out sub2.json 2> sub2.log
grep -q "3 store hit(s), 0 peer hit(s), 0 simulated" sub2.log ||
    fail "second submit was not pure store hits: $(cat sub2.log)"
cmp direct_smoke.json sub1.json ||
    fail "submit output differs from the direct run"
cmp sub1.json sub2.json ||
    fail "repeated submit output is not byte-identical"

# ------------------------------------------------------- gc smoke
"$SIM" store gc --store store --max-bytes 1G > gc.log
grep -q "evicted 0" gc.log ||
    fail "generous gc budget evicted objects: $(cat gc.log)"

# ---------------- a bad knob is refused; the server keeps serving
cat > bad_knob.json <<'EOF_SPEC'
{
  "schema": "unison-grid/1",
  "name": "bad-knob",
  "points": [
    {
      "label": "webserving/unison-40",
      "spec": {
        "schema": "unison-spec/5",
        "workload": "webserving",
        "design": {"name": "unison", "pageBlocks": 40},
        "capacityBytes": 33554432,
        "accesses": 150000,
        "quick": false,
        "seed": 42,
        "system": {
          "numCores": 4, "cpiBase": 2, "maxOutstandingMisses": 4,
          "warmFraction": 0.6666666666666666, "warmupAccesses": 0,
          "perCoreAccessBudget": 0, "memoryBackend": "fast"
        }
      }
    }
  ]
}
EOF_SPEC
RC=0
"$SIM" submit --connect sweep.sock --spec bad_knob.json \
    --out bad_knob_out.json 2> bad_knob.log || RC=$?
[ "$RC" -eq 4 ] ||
    fail "out-of-range knob must exit 4, got $RC: $(cat bad_knob.log)"
grep -q "\[1, 32\]" bad_knob.log ||
    fail "refusal does not name the knob range: $(cat bad_knob.log)"
"$SIM" submit --connect sweep.sock --ping >/dev/null 2>&1 ||
    fail "server stopped answering after a refused spec"
cat > bad_fht.json <<'EOF_SPEC'
{
  "schema": "unison-grid/1",
  "name": "bad-fht",
  "points": [
    {
      "label": "webserving/alloyfp-fht3",
      "spec": {
        "schema": "unison-spec/5",
        "workload": "webserving",
        "design": {"name": "alloyfp", "fhtEntries": 3},
        "capacityBytes": 33554432,
        "accesses": 150000,
        "quick": false,
        "seed": 42,
        "system": {
          "numCores": 4, "cpiBase": 2, "maxOutstandingMisses": 4,
          "warmFraction": 0.6666666666666666, "warmupAccesses": 0,
          "perCoreAccessBudget": 0, "memoryBackend": "fast"
        }
      }
    }
  ]
}
EOF_SPEC
RC=0
"$SIM" submit --connect sweep.sock --spec bad_fht.json \
    --out bad_fht_out.json 2> bad_fht.log || RC=$?
[ "$RC" -eq 2 ] ||
    fail "spec failing validation must exit 2, got $RC: $(cat bad_fht.log)"
grep -q "fhtEntries" bad_fht.log ||
    fail "refusal does not name fhtEntries: $(cat bad_fht.log)"
"$SIM" submit --connect sweep.sock --ping >/dev/null 2>&1 ||
    fail "server stopped answering after a spec failing validation"
RC=0
"$SIM" submit --connect sweep.sock --spec "$SMOKE" --format xml \
    --out bad_format_out.json 2> bad_format.log || RC=$?
[ "$RC" -eq 2 ] ||
    fail "submit --format xml must exit 2, got $RC: $(cat bad_format.log)"
if grep -q "point(s)" bad_format.log; then
  fail "submit --format xml reached the server: $(cat bad_format.log)"
fi
"$SIM" submit --connect sweep.sock --ping >/dev/null 2>&1 ||
    fail "server stopped answering after a bad --format"
"$SIM" submit --connect sweep.sock --spec "$SMOKE" \
    --out sub3.json 2> sub3.log
cmp direct_smoke.json sub3.json ||
    fail "submit after a refused spec differs from the direct run"

# -------------------- kill -9 mid-sweep; the store keeps every point
BEFORE=$(objects)
("$SIM" submit --connect sweep.sock --spec "$CONV" \
    --out conv_killed.json 2> conv_killed.log || true) &
SUBMIT=$!
for _ in $(seq 1 400); do
  [ "$(objects)" -gt "$BEFORE" ] && break
  sleep 0.05
done
[ "$(objects)" -gt "$BEFORE" ] ||
    fail "no object reached the store before the kill window"
kill -9 "$SERVER"
wait "$SUBMIT" 2>/dev/null || true
wait "$SERVER" 2>/dev/null || true

# Restart on the same socket and store: what the dead server already
# computed is served, not re-simulated, and the final document is the
# one a direct run writes.
"$SIM" serve --listen sweep.sock --store store > serve2.log 2>&1 &
SERVER=$!
wait_ready
"$SIM" submit --connect sweep.sock --spec "$CONV" \
    --out conv_resumed.json 2> conv_resumed.log
grep -Eq "[1-9][0-9]* store hit" conv_resumed.log ||
    fail "resubmission served nothing from the store: $(cat conv_resumed.log)"
cmp direct_conv.json conv_resumed.json ||
    fail "post-crash resubmission output differs from the direct run"

# -------------------------------------------------- graceful shutdown
"$SIM" submit --connect sweep.sock --shutdown 2>/dev/null
wait "$SERVER" || fail "server exited non-zero after shutdown"
grep -q "shut down cleanly" serve2.log ||
    fail "missing clean-shutdown line: $(cat serve2.log)"

echo "serve_smoke: OK"
