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
# End-to-end numbers (the Table-1 workloads and the ecod workload)
# come from perfbench/run.sh, not from this script.
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
