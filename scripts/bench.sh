#!/bin/sh
# Microbenchmark sweep: runs the Go benchmarks of the SAT kernel and
# the ECO engine with -benchmem, 5 repetitions each, and converts the
# raw `go test -bench` output into BENCH_sat.json (schema
# ecobench/microbench@v1) for trend tooling. The raw text is kept in
# BENCH_sat.txt so benchstat can diff two runs:
#
#   ./scripts/bench.sh && mv BENCH_sat.txt old.txt
#   ... change code ...
#   ./scripts/bench.sh && benchstat old.txt BENCH_sat.txt
#
# Also records the Table-1 sweep at intra-solve parallelism 1 and 4
# (BENCH_table1_p1.json / BENCH_table1_p4.json, additive fields on
# ecobench/table1@v1) so the serial/parallel wall-clock ratio is
# tracked alongside the microbenchmarks, plus a restart-warm run
# against a persisted solve-cache file (BENCH_table1_persist.json,
# experiment E14), a simulation-layer run (BENCH_table1_sim.json,
# experiment E15) whose cells carry the sim_* counters for elision and
# pruning rates against the p1 baseline, and a DAG-aware rewriting run
# (BENCH_table1_rewrite.json, experiment E16) whose cells carry the
# rewrite_* counters for miter node reduction against the p1 baseline.
#
# Run from the repository root. Non-gating: failures here never block
# verify.sh.
set -eu

COUNT="${BENCH_COUNT:-5}"
OUT_TXT="${BENCH_OUT:-BENCH_sat.txt}"
OUT_JSON="${BENCH_JSON:-BENCH_sat.json}"

go test -bench=. -benchmem -count="$COUNT" -run '^$' \
	./internal/sat ./internal/eco | tee "$OUT_TXT"

# Convert "BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op" lines
# into JSON, averaging over the repetitions of each benchmark.
awk -v count="$COUNT" '
BEGIN {
	n = 0
}
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in seen)) {
		seen[name] = 1
		order[n++] = name
	}
	runs[name]++
	ns[name] += $3
	for (i = 4; i < NF; i++) {
		if ($(i+1) == "B/op")      bytes[name]  += $i
		if ($(i+1) == "allocs/op") allocs[name] += $i
	}
}
END {
	printf "{\n"
	printf "  \"schema\": \"ecobench/microbench@v1\",\n"
	printf "  \"count\": %d,\n", count
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f}%s\n", \
			name, runs[name], ns[name]/runs[name], \
			bytes[name]/runs[name], allocs[name]/runs[name], \
			(i < n-1 ? "," : "")
	}
	printf "  ]\n"
	printf "}\n"
}' "$OUT_TXT" > "$OUT_JSON"

echo "wrote $OUT_TXT and $OUT_JSON"

# Table-1 sweep, serial vs parallel engine. Per-cell timeout keeps a
# pathological unit from stalling the sweep; the portfolio counters in
# the p4 report show which member configurations won the races.
T1_TIMEOUT="${BENCH_T1_TIMEOUT:-60s}"
go run ./cmd/ecobench -mode table1 -p 1 -timeout "$T1_TIMEOUT" \
	-json BENCH_table1_p1.json >/dev/null
go run ./cmd/ecobench -mode table1 -p 4 -timeout "$T1_TIMEOUT" \
	-json BENCH_table1_p4.json >/dev/null
go run ./cmd/ecobench -mode table1 -p 1 -sim -timeout "$T1_TIMEOUT" \
	-json BENCH_table1_sim.json >/dev/null
go run ./cmd/ecobench -mode table1 -p 1 -rewrite -timeout "$T1_TIMEOUT" \
	-json BENCH_table1_rewrite.json >/dev/null
echo "wrote BENCH_table1_p1.json, BENCH_table1_p4.json, BENCH_table1_sim.json and BENCH_table1_rewrite.json"

# Persistence: the suite twice in two separate processes sharing only
# a solve-cache file — the restart-warm run (experiment E14) is what
# gets recorded.
persist_cache=$(mktemp)
rm -f "$persist_cache"
go run ./cmd/ecobench -mode table1 -p 1 -timeout "$T1_TIMEOUT" \
	-cache-file "$persist_cache" >/dev/null
go run ./cmd/ecobench -mode table1 -p 1 -timeout "$T1_TIMEOUT" \
	-cache-file "$persist_cache" -json BENCH_table1_persist.json >/dev/null
rm -f "$persist_cache"
echo "wrote BENCH_table1_persist.json"
