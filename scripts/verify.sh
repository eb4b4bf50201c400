#!/bin/sh
# Tier-1 verification: build, vet, formatting, full tests, and a race
# pass over every package. Run from the repository root.
set -eux

go build ./...
go vet ./...
# perfbench is its own module, so the root build above does not see
# it; build and vet it too, or an engine API change can break it
# unnoticed.
(cd perfbench && go build ./... && go vet ./...)
# Every Go file must be gofmt-clean.
test -z "$(gofmt -l .)"
go test ./...

# One race pass over every package. Every solve is serial, so the
# concurrency left to check is the engine's deadline watcher
# interrupting its solvers, the daemon's worker pool and dedup paths,
# its result cache, ecobench's parallel cells, and persistence.
# -count=1 defeats test caching so the concurrent machinery is always
# exercised fresh.
# -short skips the slow single-threaded sweeps (the bench-suite scale
# and parity sweeps, the CLI end-to-end run) that the full suite above
# runs.
go test -race -short -count=1 ./...

# Optional, non-gating: microbenchmark sweep (scripts/bench.sh writes
# BENCH_sat.txt / BENCH_sat.json) and short fuzz smokes over the
# persistence log's recovery scan (record framing only), simulation,
# the equivalence checker and the exact search's hitting-set
# enumerator. Enable with BENCH=1.
if [ "${BENCH:-0}" = "1" ]; then
	./scripts/bench.sh || echo "bench.sh failed (non-gating)"
	go test -run FuzzPersistDecode -fuzz FuzzPersistDecode \
		-fuzztime=10s ./internal/persist \
		|| echo "persist fuzz smoke failed (non-gating)"
	go test -run FuzzSimWords -fuzz FuzzSimWords \
		-fuzztime=10s ./internal/aig \
		|| echo "sim fuzz smoke failed (non-gating)"
	go test -run FuzzCheckLits -fuzz FuzzCheckLits \
		-fuzztime=10s ./internal/cec \
		|| echo "cec fuzz smoke failed (non-gating)"
	go test -run FuzzMinHittingSet -fuzz FuzzMinHittingSet \
		-fuzztime=10s ./internal/eco \
		|| echo "hitting-set fuzz smoke failed (non-gating)"
fi

# Optional, gating when enabled: end-to-end ecod daemon smoke tests —
# serve/submit/metrics/drain, then the crash-safety pass (kill -9,
# restart on the same -data-dir, torn-tail recovery) — and unit6
# through the SAT path under the eco defaults: its second target's
# cube enumeration runs until the work meter hands it to the
# structural fallback (about 7 s on a 2-core VM), and the patch must
# come back verified (eco exits nonzero otherwise). Enable with
# SMOKE=1.
if [ "${SMOKE:-0}" = "1" ]; then
	./scripts/smoke_server.sh
	./scripts/smoke_persist.sh
	unit6=$(mktemp -d)
	go build -o "$unit6/ecogen" ./cmd/ecogen
	go build -o "$unit6/eco" ./cmd/eco
	"$unit6/ecogen" -unit unit6 -out "$unit6"
	"$unit6/eco" -dir "$unit6/unit6" -timeout 180s -o "$unit6/patch.v"
	rm -rf "$unit6"
fi
