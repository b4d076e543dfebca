#!/bin/sh
# Distributed-sweep smoke: start sbgpd -dist on an ephemeral port,
# attach two sbgpworker processes, submit a grid job, SIGKILL one
# worker mid-grid (its leases expire and re-issue to the survivor),
# and byte-diff the finished grid against a one-shot bgpsim -job run
# of the same spec. Any divergence — lost shard, double count, merge
# order — fails the cmp. The survivor polls with -poll 10s, so a
# second job finishing within 3 s shows idle workers long-poll
# instead of sleeping; a SIGTERM with an events stream attached must
# stop the daemon within 2 s.
set -eu

workdir=$(mktemp -d)
daemon_pid=
worker_a=
worker_b=
events_pid=
cleanup() {
    for p in "$daemon_pid" "$worker_a" "$worker_b" "$events_pid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sbgpd" ./cmd/sbgpd
go build -o "$workdir/sbgpworker" ./cmd/sbgpworker
go build -o "$workdir/bgpsim" ./cmd/bgpsim

# Small shards make plenty of leases, so the kill below reliably
# strands at least one mid-grid.
cat >"$workdir/spec.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 300, "seed": 7},
  "deployments": [{"named": "t1t2"}],
  "pairs": {"max_m": 6, "max_d": 8},
  "shard_size": 4,
  "workers": 2
}
JSON

# The one-shot reference grid, evaluated on a single box.
"$workdir/bgpsim" -job "$workdir/spec.json" >"$workdir/ref.json"

"$workdir/sbgpd" -dist -lease-ttl 2s -lease-shards 3 -addr 127.0.0.1:0 -data "$workdir/data" >"$workdir/log" 2>&1 &
daemon_pid=$!

addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^sbgpd listening on \([^ ]*\).*/\1/p' "$workdir/log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "sbgpd exited early:"; cat "$workdir/log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "sbgpd did not report an address:"; cat "$workdir/log"; exit 1; }

# The doomed worker starts alone (so it certainly owns the early
# leases) and throttled (so the kill below reliably lands while it
# holds one).
"$workdir/sbgpworker" -coordinator "http://$addr" -id smoke-doomed -poll 100ms -throttle 100ms >"$workdir/worker-a.log" 2>&1 &
worker_a=$!

printf '{"spec": %s}' "$(cat "$workdir/spec.json")" >"$workdir/submit.json"
id=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/submit.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submit did not return a job id"; exit 1; }

# Wait until shards are landing, then SIGKILL the sole worker
# mid-grid: no goodbye, no final submit — the lease it holds strands,
# and the coordinator must re-issue it after the heartbeat deadline.
i=0
while [ $i -lt 300 ]; do
    done_shards=$(curl -sS "http://$addr/jobs/$id" | sed -n 's/.*"shards_done": \([0-9]*\).*/\1/p')
    [ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] || {
    echo "grid never started landing shards:"; cat "$workdir/log"; exit 1; }
state=$(curl -sS "http://$addr/jobs/$id" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
[ "$state" = "running" ] || { echo "job is '$state' before the kill; too fast to test"; exit 1; }
kill -9 "$worker_a"
wait "$worker_a" 2>/dev/null || true
worker_a=

# The survivor arrives after the kill and finishes the grid, the
# re-leased shards included. Its 10 s poll is the longest it lets the
# coordinator hold an idle ask, not a sleep between asks.
"$workdir/sbgpworker" -coordinator "http://$addr" -id smoke-survivor -poll 10s >"$workdir/worker-b.log" 2>&1 &
worker_b=$!

curl -sS "http://$addr/jobs/$id/wait" >"$workdir/final.json"
grep -q '"state": "done"' "$workdir/final.json" || {
    echo "distributed job did not complete:"; cat "$workdir/final.json"
    echo "--- daemon log:"; cat "$workdir/log"
    echo "--- survivor log:"; cat "$workdir/worker-b.log"; exit 1; }

curl -sS "http://$addr/jobs/$id/result" >"$workdir/result.json"
cmp "$workdir/ref.json" "$workdir/result.json" || {
    echo "distributed grid differs from one-shot reference"; exit 1; }

stats=$(curl -sS "http://$addr/dist/v1/stats")
echo "coordinator stats: $stats"
expired=$(printf '%s' "$stats" | sed -n 's/.*"leases_expired":\([0-9]*\).*/\1/p')
[ -n "$expired" ] && [ "$expired" -ge 1 ] || {
    echo "no lease expired: the kill never stranded a lease"; exit 1; }

now_ms() { echo $(($(date +%s%N) / 1000000)); }

# A second job while the survivor is idle: its held ask for a job is
# answered the moment the job is installed, well inside its 10 s poll.
start=$(now_ms)
id2=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/submit.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id2" ] || { echo "second submit did not return a job id"; exit 1; }
curl -sS "http://$addr/jobs/$id2/wait" >"$workdir/final2.json"
took=$(($(now_ms) - start))
grep -q '"state": "done"' "$workdir/final2.json" || {
    echo "second job did not complete:"; cat "$workdir/final2.json"; exit 1; }
curl -sS "http://$addr/jobs/$id2/result" | cmp "$workdir/ref.json" - || {
    echo "second distributed grid differs from one-shot reference"; exit 1; }
[ "$took" -lt 3000 ] || {
    echo "second job took ${took}ms on an idle -poll 10s worker, want under 3000ms"; exit 1; }

# Shutdown with an events stream attached: the coordinator must
# release it (and the survivor's held ask) instead of letting the HTTP
# server wait them out.
curl -sN "http://$addr/dist/v1/events" >"$workdir/events.txt" 2>/dev/null &
events_pid=$!
i=0
while [ $i -lt 100 ] && ! grep -q "event: stats" "$workdir/events.txt"; do
    i=$((i + 1))
    sleep 0.05
done
grep -q "event: stats" "$workdir/events.txt" || { echo "events stream never attached"; exit 1; }
start=$(now_ms)
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
stop_ms=$(($(now_ms) - start))
wait "$events_pid" 2>/dev/null || true
events_pid=
grep -q "stopped" "$workdir/log" || { echo "no clean shutdown:"; cat "$workdir/log"; exit 1; }
[ "$stop_ms" -lt 2000 ] || {
    echo "sbgpd took ${stop_ms}ms to stop with an events stream attached, want under 2000ms"
    cat "$workdir/log"; exit 1; }
echo "dist smoke OK ($addr, jobs $id $id2, killed worker re-leased, bytes identical, second job ${took}ms, stop ${stop_ms}ms)"
