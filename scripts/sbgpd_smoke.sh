#!/bin/sh
# Endpoint smoke for the resident daemon: build sbgpd, start it on an
# ephemeral port, submit a small headline grid job over HTTP, wait for
# completion, fetch the result grid, then submit a large job, attach to
# its event stream, and require SIGTERM to stop the daemon within 2 s.
set -eu

workdir=$(mktemp -d)
pid=
events_pid=
cleanup() {
    for p in "$pid" "$events_pid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sbgpd" ./cmd/sbgpd

"$workdir/sbgpd" -addr 127.0.0.1:0 -data "$workdir/data" >"$workdir/log" 2>&1 &
pid=$!

# The daemon prints its resolved address on stdout; wait for it.
addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^sbgpd listening on \([^ ]*\).*/\1/p' "$workdir/log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "sbgpd exited early:"; cat "$workdir/log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "sbgpd did not report an address:"; cat "$workdir/log"; exit 1; }

cat >"$workdir/job.json" <<'JSON'
{
  "spec": {
    "version": 1,
    "topology": {"n": 400, "seed": 1},
    "deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
    "pairs": {"max_m": 6, "max_d": 8},
    "shard_size": 64
  }
}
JSON

id=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/job.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submit did not return a job id"; exit 1; }

curl -sS "http://$addr/jobs/$id/wait" >"$workdir/final.json"
grep -q '"state": "done"' "$workdir/final.json" || {
    echo "job did not complete:"; cat "$workdir/final.json"; exit 1; }

curl -sS "http://$addr/jobs/$id/result" >"$workdir/result.json"
grep -q '"graph_n"' "$workdir/result.json" || {
    echo "result grid looks wrong:"; head -c 400 "$workdir/result.json"; exit 1; }

# Shutdown with a client on a running job's event stream: the daemon
# must release the stream instead of letting the HTTP server wait it
# out, and the job must be left to resume.
cat >"$workdir/big.json" <<'JSON'
{
  "spec": {
    "version": 1,
    "topology": {"n": 4000, "seed": 1},
    "pairs": {"max_m": 400, "max_d": 400}
  }
}
JSON
big=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/big.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$big" ] || { echo "submit of the large job did not return a job id"; exit 1; }
curl -sN "http://$addr/jobs/$big/events" >"$workdir/events.txt" 2>/dev/null &
events_pid=$!
i=0
while [ $i -lt 200 ] && ! grep -q '"state":"running"' "$workdir/events.txt"; do
    i=$((i + 1))
    sleep 0.05
done
grep -q '"state":"running"' "$workdir/events.txt" || {
    echo "large job never reported running:"; cat "$workdir/events.txt"; exit 1; }

now_ms() { echo $(($(date +%s%N) / 1000000)); }
start=$(now_ms)
kill -TERM "$pid"
wait "$pid"
pid=
stop_ms=$(($(now_ms) - start))
wait "$events_pid" 2>/dev/null || true
events_pid=
grep -q "interrupted jobs will resume" "$workdir/log" || { echo "no clean shutdown:"; cat "$workdir/log"; exit 1; }
if grep -q "http shutdown:" "$workdir/log"; then
    echo "HTTP shutdown timed out with an events client attached:"; cat "$workdir/log"; exit 1
fi
[ "$stop_ms" -lt 2000 ] || {
    echo "sbgpd took ${stop_ms}ms to stop with an events client attached, want under 2000ms"
    cat "$workdir/log"; exit 1; }
echo "sbgpd smoke OK ($addr, jobs $id $big, stop ${stop_ms}ms)"
