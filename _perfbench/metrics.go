package main

import (
	"slices"

	"triehash/internal/obs"
)

// metricDef names one reported metric. README.md says which end-to-end
// metric each per-layer metric should move, and on which workload.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports from an untraced run;
// BENCHMARK.json bounds them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "get_p50_us", Unit: "us", Better: "lower"},
	{Name: "get_p99_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p99_us", Unit: "us", Better: "lower"},
	{Name: "heap_mib", Unit: "MiB", Better: "lower"},
}

// reportOnly are end-to-end metrics that exist on some workloads only (or,
// like failed_op_share, are zero on a correct run), so they are printed
// and written to the result file but not bounded.
var reportOnly = []metricDef{
	{Name: "range_p50_us", Unit: "us", Better: "lower"},
	{Name: "range_p99_us", Unit: "us", Better: "lower"},
	{Name: "failed_op_share", Unit: "ratio", Better: "lower"},
	{Name: "disk_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
}

// stageMetrics maps the span stages reported as per-op self time to their
// per-layer metric names. wal_fsync runs on the group committer, outside
// any operation, and is reported per fsync instead (wal.fsync_us).
var stageMetrics = []struct {
	stage obs.Stage
	name  string
}{
	{obs.StageFileLock, "triehash.file_lock_us_per_op"},
	{obs.StageOther, "triehash.other_us_per_op"},
	{obs.StageTrieSearch, "trie.search_us_per_op"},
	{obs.StageSplit, "core.split_us_per_op"},
	{obs.StageMerge, "core.merge_us_per_op"},
	{obs.StageLatchWait, "concurrent.latch_wait_us_per_op"},
	{obs.StageLatchHold, "concurrent.latch_hold_us_per_op"},
	{obs.StageSubtreeWait, "concurrent.subtree_wait_us_per_op"},
	{obs.StageSubtreeHold, "concurrent.subtree_hold_us_per_op"},
	{obs.StageStructWait, "concurrent.struct_wait_us_per_op"},
	{obs.StageStructHold, "concurrent.struct_hold_us_per_op"},
	{obs.StageStoreRead, "store.read_us_per_op"},
	{obs.StageStoreWrite, "store.write_us_per_op"},
	{obs.StageCacheProbe, "store.cache_probe_us_per_op"},
	{obs.StageWALAppend, "wal.append_us_per_op"},
	{obs.StageCommitWait, "wal.commit_wait_us_per_op"},
}

const (
	usPerOp = "us/op"
	lower   = "lower"
	higher  = "higher"
)

// perLayer are the metrics a traced run reports, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "triehash.file_lock_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "triehash.other_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "triehash.untraced_share", Unit: "ratio", Better: lower},
	{Name: "triehash.trace_overhead", Unit: "ratio", Better: lower},
	{Name: "triehash.allocs_per_op", Unit: "count/op", Better: lower},
	{Name: "triehash.alloc_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "triehash.gc_per_kop", Unit: "1/kop", Better: lower},
	{Name: "trie.search_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "trie.depth", Unit: "count", Better: lower},
	{Name: "trie.cells", Unit: "count", Better: lower},
	{Name: "core.splits_per_kop", Unit: "1/kop", Better: lower},
	{Name: "core.split_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "core.merge_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "core.load_factor", Unit: "ratio", Better: higher},
	{Name: "concurrent.latch_wait_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "concurrent.latch_hold_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "concurrent.subtree_wait_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "concurrent.subtree_hold_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "concurrent.struct_wait_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "concurrent.struct_hold_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "store.reads_per_op", Unit: "count/op", Better: lower},
	{Name: "store.writes_per_op", Unit: "count/op", Better: lower},
	{Name: "store.read_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "store.write_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "store.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "store.cache_probe_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "store.os_read_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "store.os_write_bytes_per_user_byte", Unit: "B/B", Better: lower},
	{Name: "store.file_read_us_per_page", Unit: "us/page", Better: lower},
	{Name: "bucket.decode_ns_per_page", Unit: "ns/page", Better: lower},
	{Name: "bucket.encode_ns_per_page", Unit: "ns/page", Better: lower},
	{Name: "bucket.encoded_bytes_per_record", Unit: "B/record", Better: lower},
	{Name: "mlth.page_reads_per_op", Unit: "count/op", Better: lower},
	{Name: "mlth.levels", Unit: "count", Better: lower},
	{Name: "mlth.pages", Unit: "count", Better: lower},
	{Name: "wal.append_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "wal.commit_wait_us_per_op", Unit: usPerOp, Better: lower},
	{Name: "wal.fsync_us", Unit: "us", Better: lower},
	{Name: "wal.commits_per_fsync", Unit: "ratio", Better: higher},
	{Name: "wal.fsyncs_per_op", Unit: "count/op", Better: lower},
	{Name: "wal.checkpoints_per_kop", Unit: "1/kop", Better: lower},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio divides, reading 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
