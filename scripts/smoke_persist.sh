#!/bin/sh
# Crash-safety smoke test for ecod's -data-dir (one file per job): run
# a daemon, finish a job, kill -9 the process (no drain), restart on
# the same directory, and assert the job history and result cache
# survived and a job caught mid-run came back terminal — then flip a
# byte in one job file and assert the next boot skips and counts it,
# keeps the intact history, and keeps serving.
#
# Run from the repository root. scripts/verify.sh runs it (gating).
set -eu

workdir=$(mktemp -d)
ECOD="$workdir/ecod"
data="$workdir/data"
trap 'kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$ECOD" ./cmd/ecod

# start_daemon <logfile>: launch on a fresh random port against $data,
# wait for /healthz, set $server_pid and $base.
start_daemon() {
	log=$1
	attempt=0
	while :; do
		port=$((20000 + ($$ + attempt * 37) % 10000 + attempt))
		"$ECOD" serve -addr "127.0.0.1:$port" -workers 2 -queue 8 \
			-data-dir "$data" 2>"$log" &
		server_pid=$!
		for _ in $(seq 1 50); do
			if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
				base="http://127.0.0.1:$port"
				return 0
			fi
			kill -0 "$server_pid" 2>/dev/null || break
			sleep 0.1
		done
		kill "$server_pid" 2>/dev/null || true
		wait "$server_pid" 2>/dev/null || true
		attempt=$((attempt + 1))
		[ "$attempt" -lt 3 ] || { echo "FAIL: server did not come up"; cat "$log"; exit 1; }
	done
}

# --- Daemon 1: do real work, then die hard. -------------------------
start_daemon "$workdir/ecod1.log"
echo "ecod[1] up on $base (pid $server_pid)"

"$ECOD" submit -server "$base" -unit unit1 -wait >"$workdir/result.json"
grep -q '"state": "done"' "$workdir/result.json" || {
	echo "FAIL: job did not finish done"; cat "$workdir/result.json"; exit 1; }
grep -q '"verified": true' "$workdir/result.json" || {
	echo "FAIL: patch not verified"; cat "$workdir/result.json"; exit 1; }
job_id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$workdir/result.json" | head -1)
[ -n "$job_id" ] || { echo "FAIL: no job id parsed"; cat "$workdir/result.json"; exit 1; }

# A second job submitted without -wait right before the kill: depending
# on timing it dies queued/running and must recover as failed, or it
# finishes and must survive as done. Either way it must be in the
# restored history with a terminal state.
midrun_id=$("$ECOD" submit -server "$base" -unit unit2 -name midrun)

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
echo "ecod[1] killed -9"
[ -f "$data/$job_id.json" ] || {
	echo "FAIL: no job file written"; ls -la "$data"; exit 1; }

# --- Daemon 2: replay, serve history, hit the persisted cache. ------
start_daemon "$workdir/ecod2.log"
echo "ecod[2] up on $base (pid $server_pid)"

"$ECOD" status -server "$base" "$job_id" >"$workdir/status.json"
grep -q '"state": "done"' "$workdir/status.json" || {
	echo "FAIL: finished job not restored done"; cat "$workdir/status.json"; exit 1; }
grep -q '"patch"' "$workdir/status.json" || {
	echo "FAIL: restored job lost its result"; cat "$workdir/status.json"; exit 1; }

"$ECOD" status -server "$base" "$midrun_id" >"$workdir/midrun.json"
grep -qE '"state": "(done|failed)"' "$workdir/midrun.json" || {
	echo "FAIL: mid-run job not restored terminal"; cat "$workdir/midrun.json"; exit 1; }
if grep -q '"state": "failed"' "$workdir/midrun.json"; then
	grep -q '"recovered": true' "$workdir/midrun.json" || {
		echo "FAIL: interrupted job not marked recovered"; cat "$workdir/midrun.json"; exit 1; }
fi

"$ECOD" list -server "$base" -state done >"$workdir/list.txt"
grep -q "$job_id" "$workdir/list.txt" || {
	echo "FAIL: finished job not listable after restart"; cat "$workdir/list.txt"; exit 1; }

# Duplicate re-submit of the finished request: served from the
# persisted result cache, pointing at the original job.
"$ECOD" submit -server "$base" -unit unit1 -wait >"$workdir/result_dup.json"
grep -q '"state": "done"' "$workdir/result_dup.json" || {
	echo "FAIL: duplicate did not finish done"; cat "$workdir/result_dup.json"; exit 1; }
grep -q "\"dedup_of\": \"$job_id\"" "$workdir/result_dup.json" || {
	echo "FAIL: duplicate not deduped to the restored job"; cat "$workdir/result_dup.json"; exit 1; }
dup_id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$workdir/result_dup.json" | head -1)
[ -n "$dup_id" ] || { echo "FAIL: no duplicate id parsed"; cat "$workdir/result_dup.json"; exit 1; }

"$ECOD" metrics -server "$base" >"$workdir/metrics2.txt"
grep -q '^ecod_cache_hits_total 1$' "$workdir/metrics2.txt" || {
	echo "FAIL: duplicate not served from the persisted cache"; cat "$workdir/metrics2.txt"; exit 1; }
grep -qE '^ecod_persist_replayed_total [1-9]' "$workdir/metrics2.txt" || {
	echo "FAIL: replay counter stayed zero"; cat "$workdir/metrics2.txt"; exit 1; }

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

# --- Daemon 3: a damaged job file. ---------------------------------
# Flip one byte in the middle of the duplicate's file (its record, so
# the checksum catches it). The next boot must skip and count it,
# never replay it, keep the intact history, and keep serving.
dup_file="$data/$dup_id.json"
[ -f "$dup_file" ] || { echo "FAIL: no job file for the duplicate"; ls -la "$data"; exit 1; }
cp "$dup_file" "$workdir/dup.orig"
size=$(wc -c <"$dup_file")
printf '#' | dd of="$dup_file" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null
! cmp -s "$dup_file" "$workdir/dup.orig" || { echo "FAIL: byte flip left the file unchanged"; exit 1; }

start_daemon "$workdir/ecod3.log"
echo "ecod[3] up on $base (pid $server_pid)"

"$ECOD" metrics -server "$base" >"$workdir/metrics3.txt"
grep -q '^ecod_persist_skipped_total 1$' "$workdir/metrics3.txt" || {
	echo "FAIL: damaged job file not skipped"; cat "$workdir/metrics3.txt"; exit 1; }
if "$ECOD" status -server "$base" "$dup_id" >/dev/null 2>&1; then
	echo "FAIL: damaged job file was replayed"; exit 1
fi
"$ECOD" status -server "$base" "$job_id" >"$workdir/status3.json"
grep -q '"state": "done"' "$workdir/status3.json" || {
	echo "FAIL: history lost after skipping the damaged file"; cat "$workdir/status3.json"; exit 1; }
"$ECOD" submit -server "$base" -unit unit3 -wait >"$workdir/result3.json"
grep -q '"state": "done"' "$workdir/result3.json" || {
	echo "FAIL: daemon not serving after skipping the damaged file"; cat "$workdir/result3.json"; exit 1; }

kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: non-zero exit on drain"; exit 1; }

echo "PASS: ecod persistence smoke test"
