#!/usr/bin/env bash
# Crash-recovery acceptance (sa::ckpt): a checkpointed bench killed
# mid-flight — once with SIGKILL, once with SIGTERM — must resume from
# its checkpoint and finish with a BENCH json that bench/bench_diff.py
# finds identical to an uninterrupted reference run outside its
# `measured` block. Both legs run with an active fault plan (the E15 spec
# carries one) and a replayed control journal, per the acceptance
# checklist.
#
# Usage: crash_recovery.sh /path/to/bench_e15_city [workdir]
set -u

BENCH=${1:?usage: crash_recovery.sh /path/to/bench_e15_city [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
JOURNAL='20 cmd=inject&kind=link-loss&unit=0&mag=1.5&dur=10; 45 cmd=inject&kind=link-loss&unit=1&mag=2&dur=5'
# Both kills land about a second into the run, so the run must last well
# beyond that. E15's default three seeds (6 cells) finish in about 0.5 s
# at --jobs 2 on an optimised build (4-vCPU Xeon VM); 24 seeds (48 cells)
# take 3.2-3.9 s there, and each kill lands with 17-24 of the 48 cells
# done.
SEEDS=24

fail() { echo "crash_recovery: FAIL: $*" >&2; exit 1; }

# Each leg signals the bench mid-flight. A bench that already exited
# would make the leg test nothing (and fail later with an opaque exit
# code), so check it is still alive right before the signal.
alive_or_fail() { # pid
  kill -0 "$1" 2>/dev/null || fail "E15 finished before the kill; raise SEEDS"
}

# A resumed process executes fewer engine events (completed cells never
# re-run), so events_total is process-local here.
BENCH_DIFF="$(dirname "$0")/../../bench/bench_diff.py"
same_results() { # reference.json candidate.json
  python3 "$BENCH_DIFF" --ignore-events-total "$1" "$2"
}

# NOTE: backgrounded invocations below spell out the command instead of
# calling this function — `fn &` backgrounds a subshell, and kill would
# signal the subshell rather than the bench.
run_bench() { # out_json extra-args...
  local out=$1; shift
  "$BENCH" --jobs 2 --seeds "$SEEDS" --json "$out" \
    --control-journal "$JOURNAL" "$@"
}

echo "== reference (uninterrupted) =="
run_bench "$WORK/ref.json" > "$WORK/ref.log" 2>&1 \
  || fail "reference run failed: $(cat "$WORK/ref.log")"

echo "== leg 1: SIGKILL mid-flight, resume =="
rm -f "$WORK/ck.sackpt" "$WORK/ck.sackpt.prev"
"$BENCH" --jobs 2 --seeds "$SEEDS" --json "$WORK/int.json" \
  --control-journal "$JOURNAL" \
  --checkpoint "$WORK/ck.sackpt" --checkpoint-every 0.2 \
  > "$WORK/int.log" 2>&1 &
PID=$!
for _ in $(seq 1 400); do
  [ -f "$WORK/ck.sackpt" ] && break
  sleep 0.05
done
[ -f "$WORK/ck.sackpt" ] || { kill -9 "$PID"; fail "no checkpoint appeared"; }
sleep 1.0  # let some cells complete so the resume actually skips work
alive_or_fail "$PID"
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null
run_bench "$WORK/res.json" --checkpoint "$WORK/ck.sackpt" \
  --resume "$WORK/ck.sackpt" > "$WORK/res.log" 2>&1 \
  || fail "resume run failed: $(cat "$WORK/res.log")"
grep -q "resuming from" "$WORK/res.log" || fail "resume path never engaged"
grep -o "resuming from.*" "$WORK/res.log"
same_results "$WORK/ref.json" "$WORK/res.json" \
  || fail "resumed json differs from the uninterrupted reference"

echo "== leg 2: SIGTERM writes partial json + final checkpoint, resume =="
rm -f "$WORK/ck2.sackpt" "$WORK/ck2.sackpt.prev" "$WORK/part.json"
"$BENCH" --jobs 2 --seeds "$SEEDS" --json "$WORK/part.json" \
  --control-journal "$JOURNAL" \
  --checkpoint "$WORK/ck2.sackpt" --checkpoint-every 60 \
  > "$WORK/part.log" 2>&1 &
PID=$!
sleep 1.0
alive_or_fail "$PID"
kill -TERM "$PID" 2>/dev/null || true
wait "$PID"
RC=$?
[ "$RC" -eq 143 ] || fail "SIGTERM exit was $RC, want 143 (128+15)"
[ -f "$WORK/part.json" ] || fail "no partial json written on SIGTERM"
grep -q '"interrupted": true' "$WORK/part.json" \
  || fail 'partial json lacks "interrupted": true'
[ -f "$WORK/ck2.sackpt" ] || fail "no final checkpoint written on SIGTERM"
run_bench "$WORK/res2.json" --checkpoint "$WORK/ck2.sackpt" \
  --resume "$WORK/ck2.sackpt" > "$WORK/res2.log" 2>&1 \
  || fail "post-SIGTERM resume failed: $(cat "$WORK/res2.log")"
grep -o "resuming from.*" "$WORK/res2.log"
same_results "$WORK/ref.json" "$WORK/res2.json" \
  || fail "post-SIGTERM resume differs from the reference"

echo "crash_recovery: PASS"
