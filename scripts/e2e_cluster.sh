#!/usr/bin/env bash
# End-to-end cluster test: starts a roadrunnerd coordinator plus three
# worker processes sharing one durable store, submits an eight-run
# campaign through roadctl, SIGKILLs one worker while it holds claims
# mid-campaign, and asserts the cluster recovers — the campaign finishes
# with zero failures, the dead node is reported dead, and the merged
# canonical result is byte-identical to a reference run on a default-mode
# daemon (the coordinator with only its in-process node). A `roadctl
# watch` started right after the submission must end with the terminal
# campaign event.
#
# The coordinator runs with an aggressive snapshot-compaction threshold
# and an admission cap, so the scenario additionally asserts that
# compaction publishes a snapshot and rotates the log onto a generation
# marker mid-campaign, and that a manifest larger than the admission cap
# is rejected with backpressure while a fitting one is still admitted
# afterwards.
#
# A second coordinator then goes through crash recovery itself: it is
# SIGKILLed mid-campaign (its worker is frozen with SIGSTOP from its first
# completed run until the restarted coordinator answers, so the kill
# cannot come after the last run), a half-written record is appended to
# its queue log (the artifact of dying inside an append), and it is
# restarted with -cluster -resume — twice — under a worker that lives
# through both restarts and re-joins each new coordinator on its own. The
# first restart
# must re-register the campaign (served under both prefixes, executed by
# nothing in the coordinator process) and finish it with zero failures;
# the second must open the log the first one appended to, and the merged
# result must again be byte-identical to the reference. No
# queue log of the run may hold a single-ref enqueue/claim/start/
# complete/expire record: the batch verbs are the only write path.
#
# Wall-clock sleeps here are host-side polling at the service edge; the
# lease protocol itself runs on the coordinator's logical tick clock and
# is exercised deterministically by internal/cluster/chaostest.
set -euo pipefail

REF_ADDR="${ROADRUNNERD_REF_ADDR:-127.0.0.1:8399}"
CO_ADDR="${ROADRUNNERD_CLUSTER_ADDR:-127.0.0.1:8400}"
REC_ADDR="${ROADRUNNERD_RECOVERY_ADDR:-127.0.0.1:8401}"
REF_BASE="http://$REF_ADDR"
CO_BASE="http://$CO_ADDR"
REC_BASE="http://$REC_ADDR"
WORK="$(mktemp -d)"
PIDS=()
# SIGCONT after SIGTERM: a worker frozen with SIGSTOP only acts on the
# TERM once it runs again.
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; kill -CONT "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

fail() { echo "e2e-cluster: FAIL: $*" >&2; exit 1; }

go build -o "$WORK/roadrunnerd" ./cmd/roadrunnerd
go build -o "$WORK/roadctl" ./cmd/roadctl

# Eight runs: enough that one worker cannot finish the campaign before
# we kill it, few enough to stay laptop-fast.
MANIFEST='{"name":"ci-cluster","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[1,2,3,4]}'

wait_healthy() { # wait_healthy BASE PID LOG
    local base="$1" pid="$2" log="$3"
    for _ in $(seq 1 100); do
        curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; fail "server exited early"; }
        sleep 0.1
    done
    cat "$log" >&2
    fail "server at $base never became healthy"
}

extract_id() { grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/'; }

# --- Reference: the same manifest on a default-mode daemon. -----------------
"$WORK/roadrunnerd" -addr "$REF_ADDR" -store "$WORK/refstore" >"$WORK/ref.log" 2>&1 &
REF_PID=$!; PIDS+=("$REF_PID")
wait_healthy "$REF_BASE" "$REF_PID" "$WORK/ref.log"

REF_ID="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$MANIFEST" "$REF_BASE/v1/cluster/campaigns" | extract_id)"
[ -n "$REF_ID" ] || fail "reference submission returned no campaign id"
for _ in $(seq 1 300); do
    curl -fsS "$REF_BASE/v1/cluster/campaigns/$REF_ID" >"$WORK/ref.json"
    grep -q '"done": *true' "$WORK/ref.json" && break
    sleep 0.2
done
grep -q '"done": *true' "$WORK/ref.json" || fail "reference campaign never finished"
grep -q '"failed": *0' "$WORK/ref.json" || fail "reference campaign reported failures"
curl -fsS "$REF_BASE/v1/cluster/campaigns/$REF_ID/result" >"$WORK/reference.bytes"
[ -s "$WORK/reference.bytes" ] || fail "empty reference merged result"
kill "$REF_PID"; wait "$REF_PID" 2>/dev/null || true

# --- Cluster: coordinator + workers on a fresh shared store. ---------------
# A 100ms tick keeps lease expiry (10 ticks = 1s) well under the poll
# budget while staying above the workers' 500ms heartbeat interval, so
# live workers never flap dead between heartbeats.
# -compact-every 16 forces at least one snapshot compaction inside the
# ~32-entry campaign; -max-outstanding 8 admits the 8-run manifest
# exactly and rejects anything larger.
"$WORK/roadrunnerd" -addr "$CO_ADDR" -cluster -policy config-affinity \
    -tick 100ms -lease-ttl 10 -steal-after 2 \
    -compact-every 16 -max-outstanding 8 \
    -store "$WORK/store" >"$WORK/coordinator.log" 2>&1 &
CO_PID=$!; PIDS+=("$CO_PID")
wait_healthy "$CO_BASE" "$CO_PID" "$WORK/coordinator.log"

start_worker() { # start_worker NAME CAPACITY -> pid
    "$WORK/roadrunnerd" -join "$CO_BASE" -node "$1" -capacity "$2" \
        -store "$WORK/store" >"$WORK/$1.log" 2>&1 &
    PIDS+=("$!")
    echo "$!"
}

# Only w2 is up at submission time, so it claims a backlog (capacity 4
# under config-affinity) and is guaranteed to hold live claims when we
# kill it after its first completion.
W2_PID="$(start_worker w2 4)"

ID="$("$WORK/roadctl" -addr "$CO_BASE" submit -f <(printf '%s' "$MANIFEST") | extract_id)"
[ -n "$ID" ] || fail "cluster submission returned no campaign id"

# Follow the campaign's event stream from the start; it must end with the
# terminal campaign event however the worker kill below reorders the work.
"$WORK/roadctl" -addr "$CO_BASE" watch "$ID" >"$WORK/watch.out" 2>&1 &
WATCH_PID=$!; PIDS+=("$WATCH_PID")

for _ in $(seq 1 200); do
    grep -q "worker w2: done" "$WORK/w2.log" && break
    kill -0 "$W2_PID" 2>/dev/null || { cat "$WORK/w2.log" >&2; fail "worker w2 exited before completing a run"; }
    sleep 0.1
done
grep -q "worker w2: done" "$WORK/w2.log" || { cat "$WORK/w2.log" >&2; fail "worker w2 never completed a run"; }

# SIGKILL: no drain, no deregistration — w2 dies holding claims. Its
# leases must expire and the runs must be re-issued to the survivors.
kill -9 "$W2_PID"

start_worker w1 2 >/dev/null
start_worker w3 2 >/dev/null

for _ in $(seq 1 300); do
    "$WORK/roadctl" -addr "$CO_BASE" status "$ID" >"$WORK/cluster.json" 2>/dev/null || true
    grep -q '"done": *true' "$WORK/cluster.json" && break
    sleep 0.2
done
grep -q '"done": *true' "$WORK/cluster.json" || { cat "$WORK/cluster.json" "$WORK/coordinator.log" >&2; fail "cluster campaign never finished after worker kill"; }
grep -q '"failed": *0' "$WORK/cluster.json" || { cat "$WORK/cluster.json" >&2; fail "cluster campaign reported failures"; }

# The fleet view must eventually show the killed node dead (its
# heartbeats stopped, so it dies one lease TTL after its last contact)
# while both survivors stay alive.
for _ in $(seq 1 100); do
    "$WORK/roadctl" -addr "$CO_BASE" nodes >"$WORK/nodes.json"
    grep -A1 '"name": *"w2"' "$WORK/nodes.json" | grep -q '"alive": *false' && break
    sleep 0.1
done
grep -q '"name": *"w2"' "$WORK/nodes.json" || fail "killed node missing from fleet view"
grep -A1 '"name": *"w2"' "$WORK/nodes.json" | grep -q '"alive": *false' \
    || { cat "$WORK/nodes.json" >&2; fail "killed node never declared dead"; }
SURVIVORS="$(grep -c '"alive": *true' "$WORK/nodes.json" || true)"
[ "$SURVIVORS" = "2" ] || { cat "$WORK/nodes.json" >&2; fail "expected 2 alive survivors, saw $SURVIVORS"; }

# The merged artifact must match the reference byte for byte.
"$WORK/roadctl" -addr "$CO_BASE" result -o "$WORK/cluster.bytes" "$ID"
cmp -s "$WORK/reference.bytes" "$WORK/cluster.bytes" \
    || fail "cluster merged result differs from the reference ($(wc -c <"$WORK/reference.bytes") vs $(wc -c <"$WORK/cluster.bytes") bytes)"

# The watch returned when the stream closed, and its last line is the
# terminal campaign event.
for _ in $(seq 1 50); do
    kill -0 "$WATCH_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$WATCH_PID" 2>/dev/null && { cat "$WORK/watch.out" >&2; fail "roadctl watch still running after the campaign finished"; }
tail -1 "$WORK/watch.out" | grep '"type":"campaign"' | grep -q '"done":true' \
    || { tail -3 "$WORK/watch.out" >&2; fail "event stream does not end with the terminal campaign event"; }

# --- Snapshot compaction evidence. -----------------------------------------
# The ~32-entry campaign crossed the 16-entry threshold at least once:
# a snapshot must exist and the live log must start at its generation.
QUEUE_LOG="$WORK/store/cluster/queue.jsonl"
SNAP="$WORK/store/cluster/queue.snap.jsonl"
[ -s "$SNAP" ] || fail "compaction never published a queue snapshot"
grep -q '"op":"snap-begin"' "$SNAP" || fail "queue snapshot lacks its snap-begin header"
grep -q '"op":"snap-end"' "$SNAP" || fail "queue snapshot lacks its snap-end trailer"
head -1 "$QUEUE_LOG" | grep -q '"op":"gen"' \
    || { head -1 "$QUEUE_LOG" >&2; fail "rotated queue log does not start with its generation marker"; }

# --- Admission backpressure. -----------------------------------------------
# Ten fresh runs exceed the cap of 8: the submit must be rejected with
# 429 backpressure (-wait=false surfaces it instead of retrying).
BIG='{"name":"ci-overflow","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[11,12,13,14,15]}'
if "$WORK/roadctl" -addr "$CO_BASE" submit -wait=false -f <(printf '%s' "$BIG") >"$WORK/big.out" 2>&1; then
    cat "$WORK/big.out" >&2
    fail "manifest larger than -max-outstanding was admitted"
fi
grep -qi "backlog\|429" "$WORK/big.out" \
    || { cat "$WORK/big.out" >&2; fail "over-cap rejection did not cite backpressure"; }

# A fitting manifest is still admitted after the rejection and completes
# cleanly — rejection has no durable side effects.
SMALL='{"name":"ci-fits","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[11]}'
ID2="$("$WORK/roadctl" -addr "$CO_BASE" submit -f <(printf '%s' "$SMALL") | extract_id)"
[ -n "$ID2" ] || fail "fitting manifest rejected after backpressure"
for _ in $(seq 1 300); do
    "$WORK/roadctl" -addr "$CO_BASE" status "$ID2" >"$WORK/small.json" 2>/dev/null || true
    grep -q '"done": *true' "$WORK/small.json" && break
    sleep 0.2
done
grep -q '"done": *true' "$WORK/small.json" || { cat "$WORK/small.json" >&2; fail "post-backpressure campaign never finished"; }
grep -q '"failed": *0' "$WORK/small.json" || { cat "$WORK/small.json" >&2; fail "post-backpressure campaign reported failures"; }

# --- Coordinator crash recovery. --------------------------------------------
# A fresh coordinator with one capacity-1 worker, so most of the eight
# runs are still queued when the coordinator dies.
REC_LOG="$WORK/recstore/cluster/queue.jsonl"
start_recovery_coordinator() { # start_recovery_coordinator LOGFILE [extra flags] -> sets REC_PID
    local log="$1"; shift
    "$WORK/roadrunnerd" -addr "$REC_ADDR" -cluster -policy config-affinity \
        -tick 100ms -lease-ttl 10 -steal-after 2 "$@" \
        -store "$WORK/recstore" >"$log" 2>&1 &
    REC_PID=$!; PIDS+=("$REC_PID")
    wait_healthy "$REC_BASE" "$REC_PID" "$log"
}
start_recovery_worker() { # start_recovery_worker NAME -> pid
    "$WORK/roadrunnerd" -join "$REC_BASE" -node "$1" -capacity 1 \
        -store "$WORK/recstore" >"$WORK/$1.log" 2>&1 &
    PIDS+=("$!")
    echo "$!"
}

start_recovery_coordinator "$WORK/rec1.log"
R1_PID="$(start_recovery_worker r1)"; PIDS+=("$R1_PID") # the $(...) subshell's PIDS+= is lost, and r1 outlives both coordinators
RID="$("$WORK/roadctl" -addr "$REC_BASE" submit -f <(printf '%s' "$MANIFEST") | extract_id)"
[ -n "$RID" ] || fail "recovery submission returned no campaign id"
# r1 is frozen (SIGSTOP) as soon as it logs its first completed run, so it
# cannot finish the eight runs before the coordinator is killed; it is
# thawed once the restarted coordinator answers.
for _ in $(seq 1 1000); do
    grep -q "worker r1: done" "$WORK/r1.log" && break
    sleep 0.01
done
kill -STOP "$R1_PID"
grep -q "worker r1: done" "$WORK/r1.log" || { cat "$WORK/r1.log" >&2; fail "worker r1 never completed a run"; }

# The coordinator dies mid-campaign, inside an append: its log ends in
# half a record with no newline. Worker r1 stays up.
kill -9 "$REC_PID"; wait "$REC_PID" 2>/dev/null || true
printf '{"op":"claim-batch","node":"r1","ba' >>"$REC_LOG"

# First restart: the journaled campaign must come back unfinished — the
# coordinator process itself executes nothing.
start_recovery_coordinator "$WORK/rec2.log" -resume
grep -q "resumed 1 journaled campaign" "$WORK/rec2.log" \
    || { cat "$WORK/rec2.log" >&2; fail "restarted coordinator did not resume the journaled campaign"; }
curl -fsS "$REC_BASE/v1/cluster/campaigns/$RID" >"$WORK/rec.json" \
    || { cat "$WORK/rec2.log" >&2; fail "resumed campaign $RID is not served under /v1/cluster/campaigns"; }
grep -q '"done": *false' "$WORK/rec.json" \
    || { cat "$WORK/rec.json" >&2; fail "coordinator was not killed mid-campaign (or the resumed campaign ran without a worker)"; }
kill -CONT "$R1_PID"

# r1 finds the new coordinator answering 404 to its claims, re-registers,
# and finishes the campaign; no new worker is started.
for _ in $(seq 1 300); do
    "$WORK/roadctl" -addr "$REC_BASE" status "$RID" >"$WORK/rec.json" 2>/dev/null || true
    grep -q '"done": *true' "$WORK/rec.json" && break
    sleep 0.2
done
grep -q '"done": *true' "$WORK/rec.json" || { cat "$WORK/rec.json" "$WORK/rec2.log" >&2; fail "resumed campaign never finished"; }
grep -q '"failed": *0' "$WORK/rec.json" || { cat "$WORK/rec.json" >&2; fail "resumed campaign reported failures"; }
grep -q "worker r1 re-joined" "$WORK/r1.log" || { cat "$WORK/r1.log" >&2; fail "worker r1 did not re-join the restarted coordinator"; }
kill -0 "$R1_PID" 2>/dev/null || fail "worker r1 died with its coordinator"

# Second restart: the log now holds records appended after the tear. A
# coordinator that appended onto the half-line instead of truncating it
# survives its first restart and refuses this one.
kill -9 "$REC_PID"; wait "$REC_PID" 2>/dev/null || true
start_recovery_coordinator "$WORK/rec3.log" -resume
"$WORK/roadctl" -addr "$REC_BASE" status "$RID" >"$WORK/rec.json" \
    || { cat "$WORK/rec3.log" >&2; fail "campaign $RID lost across the second coordinator restart"; }
grep -q '"done": *true' "$WORK/rec.json" || { cat "$WORK/rec.json" >&2; fail "finished campaign not done after the second restart"; }
grep -q '"failed": *0' "$WORK/rec.json" || { cat "$WORK/rec.json" >&2; fail "finished campaign reports failures after the second restart"; }
"$WORK/roadctl" -addr "$REC_BASE" result -o "$WORK/rec.bytes" "$RID"
cmp -s "$WORK/reference.bytes" "$WORK/rec.bytes" \
    || fail "merged result after two coordinator crashes differs from the reference"
for _ in $(seq 1 50); do
    "$WORK/roadctl" -addr "$REC_BASE" nodes | grep -q '"name": *"r1"' && break
    sleep 0.1
done
"$WORK/roadctl" -addr "$REC_BASE" nodes | grep -q '"name": *"r1"' \
    || fail "worker r1 did not re-join after the second restart"

# The batch verbs are the only write path: no log of this run holds a
# single-ref lease record.
for log in "$QUEUE_LOG" "$REC_LOG"; do
    if grep -E '"op":"(enqueue|claim|start|complete|expire)"' "$log" >&2; then
        fail "$log holds a single-ref lease record"
    fi
done

echo "e2e-cluster: OK — campaign $ID survived a SIGKILLed worker and campaign $RID two SIGKILLed coordinators (one mid-append); one worker re-joined both restarted coordinators; merged results byte-identical to the default-mode reference ($(wc -c <"$WORK/cluster.bytes") bytes); snapshot compaction, admission backpressure and -cluster -resume verified"
