#!/bin/sh
# End-to-end smoke test for the ecod daemon: start it on a random
# port, submit a benchmark-suite instance over HTTP, wait for the
# solve, check the metrics surface saw real solver work, and shut the
# daemon down cleanly via SIGTERM (graceful drain).
#
# Run from the repository root. scripts/verify.sh runs it (gating).
set -eu

workdir=$(mktemp -d)
ECOD="$workdir/ecod"
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$ECOD" ./cmd/ecod

# Random ephemeral port; retry a few times in case of a collision.
attempt=0
while :; do
	port=$((20000 + $$ % 10000 + attempt))
	"$ECOD" serve -addr "127.0.0.1:$port" -workers 2 -queue 8 \
		-data-dir "$workdir/data" 2>"$workdir/ecod.log" &
	server_pid=$!
	for _ in $(seq 1 50); do
		if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
			break 2
		fi
		kill -0 "$server_pid" 2>/dev/null || break
		sleep 0.1
	done
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	attempt=$((attempt + 1))
	[ "$attempt" -lt 3 ] || { echo "FAIL: server did not come up"; cat "$workdir/ecod.log"; exit 1; }
done
base="http://127.0.0.1:$port"
echo "ecod up on $base (pid $server_pid)"

# Submit unit1 (C17-class, fast) and poll it to completion.
"$ECOD" submit -server "$base" -unit unit1 -wait >"$workdir/result.json"
grep -q '"state": "done"' "$workdir/result.json" || {
	echo "FAIL: job did not finish done"; cat "$workdir/result.json"; exit 1; }
grep -q '"verified": true' "$workdir/result.json" || {
	echo "FAIL: patch not verified"; cat "$workdir/result.json"; exit 1; }

# Duplicate submit: the exact same request again (same unit, same
# options) must be served instantly from the daemon's content-
# addressed result cache — state done with a verified result, and
# ecod_cache_hits_total incremented.
"$ECOD" submit -server "$base" -unit unit1 -wait >"$workdir/result_dup.json"
grep -q '"state": "done"' "$workdir/result_dup.json" || {
	echo "FAIL: duplicate job did not finish done"; cat "$workdir/result_dup.json"; exit 1; }
grep -q '"verified": true' "$workdir/result_dup.json" || {
	echo "FAIL: duplicate result not verified"; cat "$workdir/result_dup.json"; exit 1; }
grep -q '"dedup_of"' "$workdir/result_dup.json" || {
	echo "FAIL: duplicate not marked dedup_of"; cat "$workdir/result_dup.json"; exit 1; }

# The metrics surface must show the finished jobs, nonzero solver and
# engine counters from the real solve (unit1 under the defaults makes
# minimize_assumptions calls and enumerates cubes), and exactly one
# result-cache hit from the duplicate submit.
"$ECOD" metrics -server "$base" >"$workdir/metrics.txt"
grep -q 'ecod_jobs_finished_total{state="done"} 2' "$workdir/metrics.txt" || {
	echo "FAIL: finished counter missing"; cat "$workdir/metrics.txt"; exit 1; }
grep -q '^ecod_cache_hits_total 1$' "$workdir/metrics.txt" || {
	echo "FAIL: result-cache hit not counted"; cat "$workdir/metrics.txt"; exit 1; }
for counter in ecod_sat_solve_calls_total ecod_eco_minimize_calls_total ecod_eco_cubes_enumerated_total; do
	grep -qE "^$counter [1-9]" "$workdir/metrics.txt" || {
		echo "FAIL: $counter missing or zero"; cat "$workdir/metrics.txt"; exit 1; }
done

# One job file per finished job, written atomically (the writer runs
# just after the terminal state becomes visible, so poll).
job_id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$workdir/result.json" | head -1)
found=0
for _ in $(seq 1 50); do
	if grep -q '"state":"done"' "$workdir/data/$job_id.json" 2>/dev/null; then found=1; break; fi
	sleep 0.1
done
[ "$found" = 1 ] || { echo "FAIL: no done job file for $job_id"; ls -la "$workdir/data"; exit 1; }

# Graceful shutdown: SIGTERM drains and the process exits on its own.
kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: non-zero exit on drain"; exit 1; }
grep -q 'drain complete' "$workdir/ecod.log" || {
	echo "FAIL: drain did not complete"; cat "$workdir/ecod.log"; exit 1; }

echo "PASS: ecod smoke test"
