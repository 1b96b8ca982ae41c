package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"triehash/internal/format"
	"triehash/internal/obs"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is a running write-ahead log: Append frames records onto the
// device, Commit blocks until a record is durable, and a dedicated
// committer goroutine turns the waiting set into group commits — one
// fsync covers every record appended before it started, so N concurrent
// writers share one device sync instead of paying one each.
//
// Locking: mu serializes appends (LSN assignment and the device write);
// cmu guards the commit rendezvous state (appended/pending/durable and
// the two condition variables). mu nests outside cmu and neither is ever
// acquired with engine locks *below* them — the public File calls in with
// its own lock held, so in the whole-program hierarchy both sit beneath
// the file tier and above nothing.
type Log struct {
	dev  Device
	hook *obs.Hook

	mu      sync.Mutex
	nextLSN uint64
	scratch []byte
	failed  error // sticky append failure: the tail may be torn
	// cur is the frame format of the log's current on-disk image:
	// appends MUST match it (mixed-version frames would misparse on
	// rescan). want is the format the owner asked for; Checkpoint — which
	// rewrites the log from byte zero — upgrades cur to want.
	cur  format.Version
	want format.Version

	cmu      sync.Mutex
	newWork  *sync.Cond // signaled when pending advances past durable
	synced   *sync.Cond // broadcast when durable advances (or the log dies)
	appended uint64     // highest LSN the device has (buffered)
	pending  uint64     // highest LSN a Commit is waiting on
	durable  uint64     // highest LSN known fsynced
	syncErr  error      // sticky fsync failure
	closed   bool

	wg sync.WaitGroup

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	committed   atomic.Uint64
	checkpoints atomic.Uint64
}

// Stats is a point-in-time snapshot of the log's activity counters.
type Stats struct {
	// Appends counts records appended (checkpoint markers included).
	Appends uint64 `json:"appends"`
	// Fsyncs counts device syncs issued by the group committer.
	Fsyncs uint64 `json:"fsyncs"`
	// Committed counts records made durable by those fsyncs; Committed /
	// Fsyncs is the achieved group-commit batching factor.
	Committed uint64 `json:"committed"`
	// Checkpoints counts log folds (each rewinds the log to a marker).
	Checkpoints uint64 `json:"checkpoints"`
	// DurableLSN is the highest LSN known fsynced.
	DurableLSN uint64 `json:"durable_lsn"`
	// Size is the live log length in bytes.
	Size int64 `json:"size"`
}

// Open scans the device's existing image, truncates a damaged tail back
// to the last whole frame (the signature of a crash mid-append), and
// returns the running log plus the scanned records for the caller to
// replay. The returned Tail reports whether a repair happened. A clean
// image is not truncated: appends resume over its end frame, and the
// dead tail past it stays for later generations to overwrite. want is
// the frame format new log generations are written with; an existing
// image keeps its own format until the next Checkpoint rewrites it. A
// log written by a future build (*format.UnknownVersionError) refuses to
// open — its intact records must not be "repaired" away.
func Open(dev Device, want format.Version, hook *obs.Hook) (*Log, []Record, Tail, error) {
	if !want.Valid() {
		want = format.Default
	}
	data, err := dev.Contents()
	if err != nil {
		return nil, nil, Tail{}, err
	}
	recs, tail, cur, err := Scan(data)
	if err != nil {
		return nil, nil, tail, err
	}
	if tail.Damaged {
		if err := dev.TruncateTo(tail.ValidSize); err != nil {
			return nil, nil, tail, err
		}
		// Make the repair itself durable: an unsynced truncation could let
		// a second crash resurrect the torn bytes (harmlessly, since they
		// rescan as damage — but the repaired log must not regress).
		if err := dev.Sync(); err != nil {
			return nil, nil, tail, err
		}
		if tail.ValidSize == 0 {
			cur = 0 // the image is empty now; the next write picks the format
		}
	} else if err := dev.Rewind(tail.ValidSize); err != nil {
		return nil, nil, tail, err
	}
	l := &Log{dev: dev, hook: hook, nextLSN: 1, cur: cur, want: want}
	if l.cur == 0 {
		// Empty image: start the log in the wanted format, header first
		// for v2 so a rescan parses the frames correctly.
		l.cur = want
		if want >= format.V2 {
			// The medium is empty, so the header needs no end frame.
			hdr := appendLogHeader(nil, want)
			if err := dev.Append(hdr, len(hdr)); err != nil {
				return nil, nil, tail, err
			}
		}
	}
	if n := len(recs); n > 0 {
		l.nextLSN = recs[n-1].LSN + 1
		l.appended = recs[n-1].LSN
		l.pending = l.appended
		l.durable = l.appended // everything scanned survived: it is on the medium
	}
	l.newWork = sync.NewCond(&l.cmu)
	l.synced = sync.NewCond(&l.cmu)
	l.wg.Add(1)
	go l.committer()
	return l, recs, tail, nil
}

// Append assigns the next LSN, frames the record and writes it to the
// device with the end frame behind it (buffered — call Commit to wait for
// durability). A device
// failure is sticky: once an append may have left a torn tail, every
// later append refuses, because records behind a tear would be
// unrecoverable.
func (l *Log) Append(op Op, key string, value []byte) (uint64, error) {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	l.scratch = appendFrame(l.scratch[:0], Record{LSN: lsn, Op: op, Key: key, Value: value}, l.cur)
	err := l.appendLocked()
	if err != nil {
		l.failed = err
		l.mu.Unlock()
		return 0, err
	}
	l.nextLSN++
	l.cmu.Lock() // inside mu, so appended advances in LSN order
	l.appended = lsn
	l.cmu.Unlock()
	l.mu.Unlock()
	l.appends.Add(1)
	l.hook.Observer().Emit(obs.Event{Type: obs.EvWALAppend, Addr: int32(lsn)})
	return lsn, nil
}

// Commit blocks until the record at lsn is durable: it registers the LSN
// with the committer and waits on the rendezvous. Every waiter whose
// record predates the next fsync is released together — that sharing is
// the group commit.
func (l *Log) Commit(lsn uint64) error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	if lsn > l.pending {
		l.pending = lsn
		l.newWork.Signal()
	}
	for l.durable < lsn && l.syncErr == nil && !l.closed {
		l.synced.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return ErrClosed
}

// committer is the group-commit loop: wait for work, snapshot the highest
// appended LSN, fsync with no locks held (appends keep landing during the
// sync — that is where the batching comes from), then publish the new
// durable horizon and wake every satisfied waiter. Each iteration is
// lock-balanced: cmu is never held across the device sync.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		l.cmu.Lock()
		for !l.closed && (l.pending <= l.durable || l.syncErr != nil) {
			l.newWork.Wait()
		}
		if l.closed {
			l.cmu.Unlock()
			return
		}
		target := l.appended
		l.cmu.Unlock()

		start := time.Now()
		err := l.dev.Sync()
		if o := l.hook.Observer(); o != nil {
			o.Stage(obs.StageWALFsync).Record(time.Since(start))
		}

		l.cmu.Lock()
		if err != nil {
			l.syncErr = err
		} else if target > l.durable {
			l.fsyncs.Add(1)
			group := target - l.durable
			l.committed.Add(group)
			l.durable = target
			l.hook.Observer().Emit(obs.Event{Type: obs.EvWALFsync, Addr: int32(group)})
		}
		l.synced.Broadcast()
		l.cmu.Unlock()
	}
}

// appendLocked writes l.scratch, the frames of one append ending with the
// record at LSN nextLSN, to the device with the end frame for LSN
// nextLSN+1 behind them, in one write. The end frame goes into the same
// reused buffer, so it costs neither a syscall nor an allocation. Call
// with mu held.
func (l *Log) appendLocked() error {
	live := len(l.scratch)
	l.scratch = appendFrame(l.scratch, Record{LSN: l.nextLSN + 1, Op: OpEnd}, l.cur)
	return l.dev.Append(l.scratch, live)
}

// Checkpoint rewinds the log after its contents have been folded into the
// bucket pages: the caller must have durably installed every effect up to
// the current append horizon before calling (the public File holds its
// lock across flush, metadata install and this call). The rewound log
// restarts at byte 0 with a single fsynced checkpoint record that carries
// the LSN sequence and the fold point forward, written over the previous
// generation. Until that record lands, the previous generation still
// scans whole, and replaying it over the folded state is idempotent.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	l.cmu.Lock()
	folded := l.appended
	l.cmu.Unlock()
	if err := l.dev.Rewind(0); err != nil {
		return err
	}
	// The log restarts from byte zero, so this is the moment the format
	// upgrades: header (v2+), checkpoint marker and end frame go down in
	// ONE append, tearing together under a power cut like any single
	// frame.
	l.cur = l.want
	lsn := l.nextLSN
	l.scratch = l.scratch[:0]
	if l.cur >= format.V2 {
		l.scratch = appendLogHeader(l.scratch, l.cur)
	}
	l.scratch = appendFrame(l.scratch, Record{LSN: lsn, Op: OpCheckpoint, CheckpointLSN: folded}, l.cur)
	if err := l.appendLocked(); err != nil {
		l.failed = err
		return err
	}
	l.nextLSN++
	if err := l.dev.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.cmu.Lock()
	l.appended = lsn
	if lsn > l.pending {
		l.pending = lsn
	}
	if lsn > l.durable { // synced inline above; guard keeps durable monotonic
		l.durable = lsn
	}
	l.synced.Broadcast()
	l.cmu.Unlock()
	l.appends.Add(1)
	l.checkpoints.Add(1)
	l.hook.Observer().Emit(obs.Event{Type: obs.EvCheckpoint, Addr: int32(folded)})
	return nil
}

// Size returns the live log length in bytes.
func (l *Log) Size() int64 { return l.dev.Size() }

// Format returns the frame format of the log's current on-disk image.
func (l *Log) Format() format.Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// Stats returns the activity counters.
func (l *Log) Stats() Stats {
	l.cmu.Lock()
	durable := l.durable
	l.cmu.Unlock()
	return Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Committed:   l.committed.Load(),
		Checkpoints: l.checkpoints.Load(),
		DurableLSN:  durable,
		Size:        l.dev.Size(),
	}
}

// Close stops the committer, trims the medium to the live log, makes any
// buffered appends durable with a final sync, and closes the device. The
// trim drops the end frame and the dead tail, so a closed log is exactly
// its live records; it is skipped when an append or sync failed, since
// the medium is then suspect and the next open's scan decides.
func (l *Log) Close() error {
	l.cmu.Lock()
	if l.closed {
		l.cmu.Unlock()
		return nil
	}
	l.closed = true
	clean := l.syncErr == nil
	l.newWork.Broadcast()
	l.synced.Broadcast()
	l.cmu.Unlock()
	l.wg.Wait()
	var err error
	l.mu.Lock()
	if clean && l.failed == nil {
		err = l.dev.TruncateTo(l.dev.Size())
	}
	l.mu.Unlock()
	if serr := l.dev.Sync(); err == nil {
		err = serr
	}
	if cerr := l.dev.Close(); err == nil {
		err = cerr
	}
	return err
}
