package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"

	"triehash"
	"triehash/internal/workload"
)

// mix gives an operation mix in per-mille shares; the shares sum to 1000.
type mix struct {
	Get       int `json:"get"`
	Overwrite int `json:"overwrite_put"`
	Insert    int `json:"insert_put"`
	Delete    int `json:"delete"`
	Range     int `json:"range100"`
}

// spec is one workload: how the file is created and preloaded, and the
// closed-loop mix its clients run. README.md gives the table and why each
// workload exists.
type spec struct {
	Name    string           `json:"name"`
	Options triehash.Options `json:"options"`
	OnDisk  bool             `json:"on_disk"`
	Keys    string           `json:"keys"` // "uniform" (8-16 bytes) or "englishlike"
	Preload int              `json:"preload"`
	Mix     mix              `json:"mix_per_mille"`
	Zipf    bool             `json:"zipf"`
	Clients int              `json:"clients"`
	Flush   string           `json:"flush_policy"`
}

const (
	valueSize  = 100
	rangeLen   = 100
	preloadBat = 1000 // keys per PutBatch call during preload
	zipfS      = 1.1  // Zipf exponent for skewed key choice (must be > 1)
	// zipfV offsets the Zipf ranks: P(rank k) is proportional to
	// (zipfV+k)^-zipfS. With an offset of 1, half of all operations hit
	// some 60 keys that stay in the CPU's caches, so the p50 of Gets and
	// writes fell between a cache-hot and a cold mode and moved by up to
	// 25% between runs. With 1000, the hottest 2% of 500k keys still take
	// 46% of the operations, and the p50 falls in the cold mode.
	zipfV = 1000
)

var specs = []spec{
	{
		Name:    "resident-mixed",
		Options: triehash.Options{},
		Keys:    "uniform",
		Preload: 500_000,
		Mix:     mix{Get: 900, Overwrite: 90, Range: 10},
		Zipf:    true,
		// One client: with two, a Put waits for the other client's reader
		// to leave the file lock in about half the calls and parks, which
		// adds about 3 us. Write latency was bimodal with its p50 between
		// the modes, and write_p50_us spread 0.16-0.26 (IQR over median,
		// ten seeds) on a 2-vCPU VM. Lock contention is measured on
		// durable-ingest, which keeps two clients.
		Clients: 1,
		Flush:   "none: in-memory file, no WAL",
	},
	{
		Name:    "durable-ingest",
		Options: triehash.Options{Concurrent: true, WAL: true},
		OnDisk:  true,
		Keys:    "uniform",
		Preload: 100_000,
		Mix:     mix{Insert: 450, Overwrite: 350, Delete: 100, Get: 100},
		Clients: 2,
		Flush:   "every write group-committed to wal.th before it returns; checkpoint every CheckpointBytes (default 1 MiB)",
	},
	{
		Name:    "paged-cold",
		Options: triehash.Options{PageCapacity: 64, BucketCapacity: 20, CacheFrames: 256},
		OnDisk:  true,
		Keys:    "englishlike",
		Preload: 150_000,
		Mix:     mix{Get: 850, Range: 100, Overwrite: 50},
		// One client: the MLTH engine serializes writers against readers
		// under the file lock, and with a second client a Put mostly waits
		// for the other client's 300 us Range. That wait, stretched by any
		// CPU the host steals from the lock holder, made the write and get
		// tails of two-client runs vary 2-5x between runs on a 2-vCPU VM.
		Clients: 1,
		Flush:   "no WAL: bucket writes go to buckets.th without fsync; metadata installed at Close",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs are everything a run feeds the program, derived from the seed
// alone: the key universe (preload keys first, then the insert pool) and,
// for workloads that scan, the sorted order of the preloaded keys.
type inputs struct {
	keys    []string
	preload int
	sorted  []int32 // key ids in ascending key order (preload only)
	rank    []int32 // id -> position in sorted; nil without ranges
}

func makeInputs(s spec, seed int64, preload, pool int) *inputs {
	n := preload + pool
	var keys []string
	if s.Keys == "englishlike" {
		keys = workload.EnglishLike(seed, n)
	} else {
		keys = workload.Uniform(seed, n, 8, 16)
	}
	in := &inputs{keys: keys, preload: preload}
	if s.Mix.Range > 0 {
		in.sorted = make([]int32, preload)
		for i := range in.sorted {
			in.sorted[i] = int32(i)
		}
		sort.Slice(in.sorted, func(a, b int) bool { return keys[in.sorted[a]] < keys[in.sorted[b]] })
		in.rank = make([]int32, preload)
		for pos, id := range in.sorted {
			in.rank[id] = int32(pos)
		}
	}
	return in
}

// clientRand returns client c's private generator: the op stream of a
// client depends only on the seed and its index.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 1))
}

// Values are 100 bytes: the key id and version, then filler derived from
// both, so any returned value can be checked without storing a copy.
func fillValue(dst []byte, id int32, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(id))
	binary.LittleEndian.PutUint32(dst[4:], ver)
	x := uint64(uint32(id))<<32 | uint64(ver)
	var w [8]byte
	for i := 8; i < valueSize; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:], w[:])
	}
}

func newValue(id int32, ver uint32) []byte {
	v := make([]byte, valueSize)
	fillValue(v, id, ver)
	return v
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// valueOK reports whether got is exactly the value of (id, ver).
func valueOK(got, scratch []byte, id int32, ver uint32) bool {
	if len(got) != valueSize {
		return false
	}
	fillValue(scratch, id, ver)
	return bytes.Equal(got, scratch)
}

// valueOfKey reports whether got is a well-formed value of key id at any
// version — the check for records another client may be overwriting.
func valueOfKey(got, scratch []byte, id int32) bool {
	if len(got) != valueSize || int32(binary.LittleEndian.Uint32(got)) != id {
		return false
	}
	return valueOK(got, scratch, id, binary.LittleEndian.Uint32(got[4:]))
}
