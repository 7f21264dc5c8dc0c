#!/usr/bin/env bash
# End-to-end smoke test for the campaign orchestration service: builds
# roadrunnerd, starts it against a throwaway store, submits a two-run
# laptop-scale campaign over HTTP, polls it to completion, and then
# resubmits the identical manifest asserting the warm pass is 100% cache
# hits — zero fresh executions, zero additional simulation events, and
# byte-identical served results. The same default-mode daemon (coordinator
# plus its in-process node) is then driven with roadctl — submit, status,
# result — which speaks the /v1/cluster/campaigns prefix of the one API.
set -euo pipefail

ADDR="${ROADRUNNERD_ADDR:-127.0.0.1:8383}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
# kill 0 would signal the whole process group, so guard the unset/cleared case.
trap '[ "${SERVER_PID:-0}" -gt 0 ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "e2e: FAIL: $*" >&2; exit 1; }

go build -o "$WORK/roadrunnerd" ./cmd/roadrunnerd
"$WORK/roadrunnerd" -addr "$ADDR" -store "$WORK/store" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log" >&2; fail "server exited early"; }
    sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "server never became healthy"

MANIFEST='{"name":"ci-smoke","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[1]}'

# submit_campaign BODY -> campaign id on stdout
submit_campaign() {
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" "$BASE/v1/cluster/campaigns" \
        | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/'
}

# poll_done ID FILE: polls until the campaign reports done, saving the
# final status JSON to FILE.
poll_done() {
    local id="$1" out="$2"
    for _ in $(seq 1 300); do
        curl -fsS "$BASE/v1/cluster/campaigns/$id" >"$out"
        grep -q '"done": *true' "$out" && return 0
        sleep 0.2
    done
    cat "$out" >&2
    fail "campaign $id did not finish"
}

metric() { curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m {print $2}'; }

# --- Cold pass: both runs execute. -----------------------------------------
COLD_ID="$(submit_campaign "$MANIFEST")"
[ -n "$COLD_ID" ] || fail "cold submission returned no campaign id"
poll_done "$COLD_ID" "$WORK/cold.json"
grep -q '"completed": *2' "$WORK/cold.json" || { cat "$WORK/cold.json" >&2; fail "cold pass did not complete 2 runs"; }
grep -q '"failed": *0' "$WORK/cold.json" || fail "cold pass reported failures"

EXECUTED="$(metric roadrunnerd_runs_executed_total)"
[ "$EXECUTED" = "2" ] || fail "cold executed_total=$EXECUTED, want 2"
SIM_EVENTS="$(metric roadrunnerd_sim_events_total)"
[ "${SIM_EVENTS%.*}" -gt 0 ] || fail "cold pass processed no simulation events"

KEYS="$(grep -o '"key": *"[a-f0-9]\{64\}"' "$WORK/cold.json" | sed 's/.*"\([a-f0-9]\{64\}\)"/\1/' | sort -u)"
[ "$(echo "$KEYS" | wc -l)" = "2" ] || fail "expected 2 distinct run keys"
i=0
for key in $KEYS; do
    i=$((i + 1))
    curl -fsS "$BASE/v1/runs/$key" >"$WORK/cold-run-$i.txt"
    [ -s "$WORK/cold-run-$i.txt" ] || fail "empty canonical bytes for $key"
done

# --- Warm pass: identical manifest, all cache hits. ------------------------
WARM_ID="$(submit_campaign "$MANIFEST")"
[ "$WARM_ID" != "$COLD_ID" ] || fail "resubmission reused the cold campaign id"
poll_done "$WARM_ID" "$WORK/warm.json"
grep -q '"cached": *2' "$WORK/warm.json" || { cat "$WORK/warm.json" >&2; fail "warm pass was not 100% cache hits"; }

[ "$(metric roadrunnerd_runs_executed_total)" = "$EXECUTED" ] || fail "warm pass executed fresh runs"
[ "$(metric roadrunnerd_sim_events_total)" = "$SIM_EVENTS" ] || fail "warm pass executed simulation events"
[ "$(metric roadrunnerd_runs_cached_total)" = "2" ] || fail "warm cached_total != 2"

i=0
for key in $KEYS; do
    i=$((i + 1))
    curl -fsS "$BASE/v1/runs/$key" >"$WORK/warm-run-$i.txt"
    cmp -s "$WORK/cold-run-$i.txt" "$WORK/warm-run-$i.txt" || fail "warm bytes for $key differ from cold bytes"
done

echo "e2e: OK — cold pass executed $EXECUTED runs ($SIM_EVENTS sim events), warm pass served both from cache byte-identically"

# --- roadctl against the same daemon. --------------------------------------
# roadctl drives the same /v1/cluster/campaigns API the curls above did.
go build -o "$WORK/roadctl" ./cmd/roadctl
CTL_MANIFEST='{"name":"ci-roadctl","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[2]}'
CTL_ID="$("$WORK/roadctl" -addr "$BASE" submit -f <(printf '%s' "$CTL_MANIFEST") \
    | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')"
[ -n "$CTL_ID" ] || fail "roadctl submit returned no campaign id"
for _ in $(seq 1 300); do
    "$WORK/roadctl" -addr "$BASE" status "$CTL_ID" >"$WORK/ctl.json"
    grep -q '"done": *true' "$WORK/ctl.json" && break
    sleep 0.2
done
grep -q '"completed": *2' "$WORK/ctl.json" || { cat "$WORK/ctl.json" >&2; fail "roadctl campaign did not complete 2 runs"; }
"$WORK/roadctl" -addr "$BASE" result -o "$WORK/ctl.bytes" "$CTL_ID"
[ -s "$WORK/ctl.bytes" ] || fail "roadctl result is empty"
curl -fsS "$BASE/v1/cluster/campaigns/$CTL_ID/result" | cmp -s - "$WORK/ctl.bytes" \
    || fail "roadctl result differs from GET /v1/cluster/campaigns/$CTL_ID/result"
"$WORK/roadctl" -addr "$BASE" nodes | grep -q '"name": *"local"' \
    || fail "the in-process node is missing from the fleet view"
echo "e2e: OK — roadctl submit/status/result/nodes against the default-mode daemon"

# --- Multi-node cluster scenario. ------------------------------------------
# Three workers, one SIGKILLed mid-campaign; the cluster must recover and
# produce a merged result byte-identical to a default-mode daemon's. Set
# E2E_SKIP_CLUSTER=1 to run only the smoke above (CI runs the cluster
# scenario as its own job).
if [ "${E2E_SKIP_CLUSTER:-0}" != "1" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=0
    "$(dirname "$0")/e2e_cluster.sh"
fi
