# Standard targets for the trie-hashing reproduction.

GO ?= go

.PHONY: all build lint lint-graph test race short bench bench-baseline bench-compare bench-put-compare bench-wal bench-format repro cover fuzz obs-bench crash clean

all: build lint test race

build:
	$(GO) build ./...

# Static gates: go vet, thvet (the repo-specific analyzer suite: lock
# graph, publication safety, atomics, determinism, error discipline, obs
# coverage) and gofmt, which fails on any file it would reformat.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/thvet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi

# Render the whole-program lock-acquisition graph (markdown to the
# terminal, DOT to lockgraph.dot for Graphviz/CI) and fail if the
# inferred tier hierarchy drifts from internal/analysis/lockhierarchy.txt.
lint-graph:
	$(GO) run ./cmd/thvet -graph dot > lockgraph.dot
	$(GO) run ./cmd/thvet -graph md

# The race pass on the concurrency-bearing packages is part of the default
# test gate: the sharded pool, the batch path, the WAL group committer and
# the concurrent engine's public stress tests live or die by it.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/concurrent ./internal/store ./internal/wal
	$(GO) test -race -run 'TestConcurrent' .

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# Regenerate every figure/table of the paper (text and CSV forms).
repro:
	$(GO) run ./cmd/thbench | tee thbench_output.txt
	$(GO) run ./cmd/thbench -csv > thbench_output.csv

bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt

# Throughput benchmarks for the buffer pool / batch / read path work.
THROUGHPUT_BENCH = BenchmarkConcurrentGetParallel|BenchmarkBatchGet|BenchmarkShardedCache|BenchmarkGet|BenchmarkConcurrentGet

# Save the current HEAD's numbers as the comparison baseline.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' -benchmem -count=5 . | tee bench_baseline.txt

# Re-run the same benchmarks and compare against the saved baseline.
# benchstat is used when installed; otherwise both result sets are printed
# side by side for manual inspection (nothing is downloaded).
bench-compare:
	@test -f bench_baseline.txt || { echo "no bench_baseline.txt: run 'make bench-baseline' on the base commit first"; exit 1; }
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' -benchmem -count=5 . | tee bench_head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench_baseline.txt bench_head.txt; \
	else \
		echo "--- benchstat not installed; baseline vs HEAD ---"; \
		grep '^Benchmark' bench_baseline.txt | sed 's/^/base /'; \
		grep '^Benchmark' bench_head.txt | sed 's/^/head /'; \
	fi

# Gates: instrumented-but-disabled Get must stay within 5% of the
# uninstrumented baseline (and add zero allocations), and span tracing
# must stay within 15% of a histogram-only observer on the warm read path.
obs-bench:
	OBS_BENCH=1 $(GO) test -run 'TestObsOverhead|TestObsSpanOverhead' -v -timeout 600s .

# Write-path scaling gate: global-lock vs concurrent engine, serial and
# parallel Put/PutBatch/mixed, on a fully cached in-memory store. Writes
# BENCH_write.json and fails when parallel speedup or the serial-overhead
# bound regresses.
bench-put-compare:
	WRITE_BENCH=1 $(GO) test -run TestWriteScaling -v -timeout 600s .

# Durable write-path gate: Put with and without the write-ahead log in
# the simulated-device regime. Writes BENCH_durable.json and fails when
# durable Put exceeds 2x non-durable at 8 writers (group commit must
# amortize the fsync).
bench-wal:
	WAL_BENCH=1 $(GO) test -run TestWALDurableBench -v -timeout 900s .

# On-disk format gate: the compact v2 encoding against the fixed-width
# v1 layout over the thload growth workload (small slots, WAL on, byte
# budgets deciding every split). Writes BENCH_format.json and fails when
# v2 shrinks the file by less than 30% or regresses Put/Get by more
# than 5%. FORMAT_BENCH_SIZE_ONLY=1 keeps only the size gate (CI smoke).
bench-format:
	FORMAT_BENCH=1 $(GO) test -run TestFormatBench -v -timeout 600s .

# The exhaustive crash-point harness: power-cut the canonical workload at
# every journal position (clean, torn, bit-flipped, zeroed) and verify the
# durability contract after reopening — the unlogged workload and the
# WAL-driven one (log appends, checkpoints, truncations all under the
# cut generator). Deterministic — no clocks, no entropy — so a failure
# is a bug, not flake.
crash:
	$(GO) test -run 'TestCrashPoints$$|TestWALCrashPoints$$' -v ./internal/core/

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz FuzzFileOps -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzSplitString -fuzztime 15s ./internal/keys/
	$(GO) test -fuzz FuzzComparePathBounds -fuzztime 15s ./internal/keys/
	$(GO) test -fuzz FuzzKeyCompare -fuzztime 15s ./internal/keys/
	$(GO) test -fuzz FuzzTrieDecode -fuzztime 15s ./internal/trie/
	$(GO) test -fuzz FuzzBucketDecodeV2 -fuzztime 15s ./internal/bucket/
	$(GO) test -fuzz FuzzTrieDecodeV2 -fuzztime 15s ./internal/trie/

clean:
	rm -f thbench_output.txt thbench_output.csv bench_output.txt test_output.txt bench_baseline.txt bench_head.txt lockgraph.dot
