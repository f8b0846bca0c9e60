#!/usr/bin/env bash
# Kill-9 crash-recovery harness for the serve path. The in-process chaos
# suite (tests/integration/chaos_test.cc) simulates crashes by dropping
# the service object; this script kills the REAL process with SIGKILL —
# no destructors, no atexit, no final checkpoint — restarts it with
# --recover, and proves the recovered process answers the same repair
# requests byte-for-byte identically to an uninterrupted run.
#
# Usage: tools/chaos_replay.sh [build_dir]
#
# Exits 0 when every assertion holds:
#   1. a kill -9'd server leaves only intact checkpoints behind,
#   2. `serve --recover` comes back from the newest one,
#   3. post-recovery repair output is byte-identical to the output an
#      uncrashed server produces for the same requests (determinism
#      contract: repairs key on (session, row), not process history),
#   4. the recovered server keeps checkpointing (generations advance),
#   5. the channel sketches survive: values_observed after recovery
#      matches what the crashed server had checkpointed.

set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/otfair"
[[ -x "$CLI" ]] || { echo "chaos_replay: $CLI not found (build first)" >&2; exit 2; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/otfair_chaos.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
CKPT="$WORK/ckpt"
mkdir -p "$CKPT"

fail() { echo "chaos_replay: FAIL: $*" >&2; exit 1; }

# --- Fixture: a small design + a batch of repair request lines ----------
"$CLI" simulate --rows=400 --out="$WORK/research.csv" --seed=11 >/dev/null \
  || fail "simulate research"
"$CLI" design --research="$WORK/research.csv" --plan="$WORK/plan.bin" --n_q=16 >/dev/null \
  || fail "design"

make_requests() {  # make_requests <first_row> <count> <file>
  local first=$1 count=$2 out=$3
  : > "$out"
  for ((i = 0; i < count; ++i)); do
    local row=$((first + i))
    # Deterministic pseudo-features; u/s cycle through the 2x2 grid.
    echo "repair 7 $row $((row % 2)) $(((row / 2) % 2)) $row.25 -$row.5" >> "$out"
  done
}
make_requests 0   200 "$WORK/phase1.req"
make_requests 200 100 "$WORK/phase2.req"

SERVE_FLAGS=(--plan="$WORK/plan.bin" --seed=99 --checkpoint_dir="$CKPT"
             --checkpoint_interval_ms=100000)

# --- Reference run: no crash, phase1 + checkpoint + phase2 --------------
{ cat "$WORK/phase1.req"; echo "checkpoint"; cat "$WORK/phase2.req"; echo "quit"; } \
  | "$CLI" serve "${SERVE_FLAGS[@]}" > "$WORK/reference.out" 2>/dev/null \
  || fail "reference serve run"
grep '^ok 7 ' "$WORK/reference.out" > "$WORK/reference.rows"
[[ $(wc -l < "$WORK/reference.rows") -eq 300 ]] || fail "reference run repaired $(wc -l < "$WORK/reference.rows") rows, want 300"
rm -f "$CKPT"/*  # reference checkpoints are not part of the experiment

# --- Crash run: phase1, forced checkpoint, then SIGKILL mid-flight ------
mkfifo "$WORK/in.pipe"
"$CLI" serve "${SERVE_FLAGS[@]}" < "$WORK/in.pipe" > "$WORK/crash.out" 2>/dev/null &
SERVER=$!
exec 3> "$WORK/in.pipe"
cat "$WORK/phase1.req" >&3
echo "checkpoint" >&3
echo "health" >&3
# Wait until the checkpoint ack and health line land, then pull the plug.
for _ in $(seq 100); do
  grep -q '^ok checkpoint ' "$WORK/crash.out" && grep -q 'values_observed' "$WORK/crash.out" && break
  sleep 0.1
done
grep -q '^ok checkpoint ' "$WORK/crash.out" || fail "crashed server never acked the checkpoint"
OBSERVED_BEFORE=$(grep -o '"values_observed":[0-9]*' "$WORK/crash.out" | tail -1 | cut -d: -f2)
kill -9 "$SERVER" 2>/dev/null
wait "$SERVER" 2>/dev/null
exec 3>&-
ls "$CKPT"/checkpoint-*.otcp >/dev/null 2>&1 || fail "no checkpoint survived the kill"

# 1. Every surviving checkpoint file is intact (atomic-write contract).
for f in "$CKPT"/checkpoint-*.otcp; do
  "$CLI" inspect --checkpoint="$f" >/dev/null 2>&1 || fail "torn checkpoint after kill -9: $f"
done

# --- Recovery run: --recover, then replay phase2 ------------------------
{ echo "health"; cat "$WORK/phase2.req"; echo "checkpoint"; echo "quit"; } \
  | "$CLI" serve "${SERVE_FLAGS[@]}" --recover > "$WORK/recovered.out" 2> "$WORK/recovered.err" \
  || fail "recovered serve run exited nonzero"

# 2. It actually recovered (didn't cold-start).
grep -q 'recovered checkpoint generation' "$WORK/recovered.err" \
  || fail "server did not report recovering a checkpoint"

# 5. Sketch/drift continuity: observed count picked up where the crash left off.
OBSERVED_AFTER=$(grep -o '"values_observed":[0-9]*' "$WORK/recovered.out" | head -1 | cut -d: -f2)
[[ "$OBSERVED_AFTER" == "$OBSERVED_BEFORE" ]] \
  || fail "values_observed after recovery: $OBSERVED_AFTER, want $OBSERVED_BEFORE"

# 3. Byte-identical repairs for the post-crash phase.
grep '^ok 7 ' "$WORK/recovered.out" > "$WORK/recovered.rows"
tail -100 "$WORK/reference.rows" > "$WORK/reference.phase2"
diff -q "$WORK/reference.phase2" "$WORK/recovered.rows" >/dev/null \
  || fail "post-recovery repairs differ from the uncrashed run"

# 4. Checkpointing continued past the recovered generation.
LAST=$(ls "$CKPT"/checkpoint-*.otcp | sort | tail -1)
"$CLI" inspect --checkpoint="$LAST" >/dev/null 2>&1 || fail "post-recovery checkpoint is torn"
N_CKPT=$(ls "$CKPT"/checkpoint-*.otcp | wc -l)
[[ "$N_CKPT" -ge 2 ]] || fail "recovered server never wrote a new checkpoint"

echo "chaos_replay: PASS (kill -9 -> recover: $OBSERVED_BEFORE values carried, ${N_CKPT} checkpoints intact, 100 post-crash repairs byte-identical)"
