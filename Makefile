# Standard targets for the trie-hashing reproduction.

GO ?= go

.PHONY: all build lint lint-graph test race short bench bench-put-compare bench-wal bench-format repro cover fuzz obs-bench crash clean

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
	$(GO) test -race -run 'TestConcurrent|TestGetBatchMatchesGet|TestPutBatchMatchesPut' .

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
# WAL-driven one (log appends, checkpoint rewinds and markers, the close
# trim, all under the cut generator). Deterministic — no clocks, no
# entropy — so a failure is a bug, not flake.
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
	$(GO) test -run '^$$' -fuzz FuzzSearchPageMatchesDecode -fuzztime 15s ./internal/bucket/
	$(GO) test -run '^$$' -fuzz FuzzScanRecycled -fuzztime 15s ./internal/wal/
	$(GO) test -fuzz FuzzTrieDecodeV2 -fuzztime 15s ./internal/trie/

clean:
	rm -f thbench_output.txt thbench_output.csv bench_output.txt test_output.txt lockgraph.dot
