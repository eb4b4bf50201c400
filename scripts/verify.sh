#!/bin/sh
# Tier-1 verification: build, vet, full tests, and a short race pass
# over the concurrency layer (solver interrupts, parallel bench
# harness). Run from the repository root.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race -short ./...

# Focused race pass over the intra-solve parallelism paths: the SAT
# portfolio (racing members + clause exchange), sharded/batched
# equivalence checking, the parallel engine routes, and the daemon's
# CPU-slot semaphore. These also run under `-race -short ./...` above;
# the explicit -count=1 run defeats test caching so the parallel
# machinery is always exercised fresh.
go test -race -count=1 -run 'Portfolio|Parallel|Shard|Slot|CPUSlots' \
	./internal/sat ./internal/cec ./internal/eco ./internal/server

# Focused race pass over the cache layer: the shared solve/window
# stores (hit/miss/collision/eviction under concurrent access), the
# engine determinism differentials, and the daemon's dedup paths.
go test -race -short -count=1 ./internal/cache
go test -race -count=1 -run 'Cache|Dedup|Retry|Warm' \
	./internal/eco ./internal/server ./internal/bench

# Focused race pass over the CNF preprocessing layer: BVE + model
# reconstruction, subsumption/strengthening, vivification, and the
# prep-on differentials through the engine and the equivalence
# checker.
go test -race -count=1 -run 'Prep|Reconstruct|Vivif|Subsum|Elim' \
	./internal/sat ./internal/cnf ./internal/eco ./internal/cec

# Focused race pass over the bit-parallel simulation layer: the
# pattern/model banks, the evaluator/simulator rewrites, and the
# sim-on engine differentials (verdict/cost parity, serial and cache
# determinism, options-key separation).
go test -race -count=1 ./internal/sim
go test -race -count=1 -run 'Sim|Evaluator|Sweep' \
	./internal/aig ./internal/eco ./internal/cec

# Focused race pass over the DAG-aware rewriting layer: the NPN
# canonicalizer and replacement library, the rewriting pass itself
# (equivalence, determinism, shrink differentials), and the rewrite-on
# engine/cec/daemon differentials (verdict/cost parity, cache-key
# separation, counterexample readback). -short skips the exhaustive
# 65536-function recipe sweep — single-threaded table math the full
# non-race suite above already runs; internal/bench's rewrite parity
# test (pure solving, also covered above) stays out for the same
# reason.
go test -race -short -count=1 -run 'NPN|Rewrite|Cut|Isop|Optimize' \
	./internal/aig ./internal/eco ./internal/cec ./internal/server

# Focused race pass over the persistence layer: the segment log
# (group-commit fsync, rotation, compaction vs concurrent appends),
# torn-tail recovery, the daemon's replay/restore paths, and the
# persisted-cache determinism differential.
go test -race -count=1 ./internal/persist
go test -race -count=1 -run 'Persist|Restart|Recover|Torn|Compact|List' \
	./internal/server ./internal/eco

# Optional, non-gating: microbenchmark sweep (scripts/bench.sh writes
# BENCH_sat.txt / BENCH_sat.json) and short fuzz smokes over the
# preprocessing model-reconstruction stack, the persistence decoder,
# simulation, rewriting and the equivalence checker. Enable with BENCH=1.
if [ "${BENCH:-0}" = "1" ]; then
	./scripts/bench.sh || echo "bench.sh failed (non-gating)"
	go test -run FuzzPrepReconstruction -fuzz FuzzPrepReconstruction \
		-fuzztime=10s ./internal/sat \
		|| echo "prep fuzz smoke failed (non-gating)"
	go test -run FuzzPersistDecode -fuzz FuzzPersistDecode \
		-fuzztime=10s ./internal/persist \
		|| echo "persist fuzz smoke failed (non-gating)"
	go test -run FuzzSimWords -fuzz FuzzSimWords \
		-fuzztime=10s ./internal/aig \
		|| echo "sim fuzz smoke failed (non-gating)"
	go test -run FuzzRewrite -fuzz FuzzRewrite \
		-fuzztime=10s ./internal/aig \
		|| echo "rewrite fuzz smoke failed (non-gating)"
	go test -run FuzzCheckLits -fuzz FuzzCheckLits \
		-fuzztime=10s ./internal/cec \
		|| echo "cec fuzz smoke failed (non-gating)"
fi

# Optional, gating when enabled: end-to-end ecod daemon smoke tests —
# serve/submit/metrics/drain, then the crash-safety pass (kill -9,
# restart on the same -data-dir, torn-tail recovery). Enable with
# SMOKE=1.
if [ "${SMOKE:-0}" = "1" ]; then
	./scripts/smoke_server.sh
	./scripts/smoke_persist.sh
fi
