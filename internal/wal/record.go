// Package wal is the write-ahead log: the hot durability path of a
// persistent trie-hashed file. Mutations are framed as CRC-checked
// logical records (put/delete with full key and value) appended to a
// single log device; a Put is durable once its record is fsynced, which a
// group committer batches across concurrent writers so N in-flight
// operations share one fsync. Periodic checkpoints fold the log into the
// bucket pages (flush + metadata install) and rewind it: the next
// generation starts at byte 0 and overwrites the last one in place, so a
// commit's fsync rewrites blocks the file already holds instead of growing
// it. Every append is followed on the medium by an end frame that marks
// the live end, and LSNs run consecutively through a generation, so a scan
// stops at the live end and never replays a stale frame of an older
// generation. Replay on open is bounded by the checkpoint interval and is
// idempotent by construction — records are logical upserts and deletes —
// and a torn tail (the crash signature of an in-flight append) is detected
// by the frame CRC and truncated; only damage *before* the valid tail
// demotes recovery to the salvage scan.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"triehash/internal/format"
)

// Op is the logical operation a record replays.
type Op byte

const (
	// OpPut inserts or replaces Key with Value.
	OpPut Op = 1
	// OpDelete removes Key.
	OpDelete Op = 2
	// OpCheckpoint marks a fold point: the record's CheckpointLSN is the
	// last LSN whose effects the bucket pages durably contain. A rewound
	// log starts with exactly one checkpoint record, which carries the LSN
	// sequence across generations.
	OpCheckpoint Op = 3
	// OpEnd marks the live end of the log. Its LSN is the next record's:
	// every append writes one after its frame, and the next append
	// overwrites it. A scan stops cleanly at an end frame, so the bytes a
	// rewound log still holds past it — older generations' frames — are
	// never read as records.
	OpEnd Op = 4
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCheckpoint:
		return "checkpoint"
	case OpEnd:
		return "end"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Record is one logical log entry.
type Record struct {
	// LSN is the record's log sequence number: strictly increasing,
	// monotonic across checkpoints and reopens.
	LSN uint64
	// Op selects put, delete or checkpoint.
	Op Op
	// Key and Value are the record's payload (Value empty for deletes;
	// both empty for checkpoints).
	Key   string
	Value []byte
	// CheckpointLSN is the fold point an OpCheckpoint record carries.
	CheckpointLSN uint64
}

// Version-1 frame layout (a v1 log is headerless — frames start at
// byte 0):
//
//	u32 payload length | u32 crc32(payload) | payload
//	payload: u64 lsn | u8 op | u32 keylen | key | value   (put/delete)
//	         u64 lsn | u8 op | u64 checkpointLSN          (checkpoint)
//	         u64 lsn | u8 op                              (end)
//
// A version-2 log opens with an 8-byte header (u32 magic "TWAL" | u8
// version | 3 zero bytes) followed by uvarint frames:
//
//	uvarint payload length | u32 crc32(payload) | payload
//	payload: uvarint lsn | u8 op | uvarint keylen | key | value
//	         uvarint lsn | u8 op | uvarint checkpointLSN
//	         uvarint lsn | u8 op
//
// The magic cannot open a v1 log: a v1 log starts with a frame's payload
// length, and no real payload is 1.2 GB. In either version the
// length/CRC header makes a torn append self-announcing: a partial frame
// either has too few bytes for its declared length or fails its
// checksum, and scanning stops there. No frame is all zeros (every
// payload holds its op byte), so a zeroed chunk never reads as one.
const (
	frameHeader = 8
	logMagic    = 0x4C415754 // "TWAL" on disk (little-endian)
	// logHeaderSize is the version-2 log header length.
	logHeaderSize = 8
)

// appendLogHeader writes the v2 log header onto buf.
func appendLogHeader(buf []byte, v format.Version) []byte {
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	hdr[4] = byte(v)
	return append(buf, hdr[:]...)
}

// appendFrame serializes r onto buf in the given log version and returns
// the extended slice. The payload is built in place after a reserved
// header, so a frame costs no allocation once buf has grown to size.
func appendFrame(buf []byte, r Record, v format.Version) []byte {
	if v == format.V2 {
		n := format.UvarintLen(r.LSN) + 1
		switch r.Op {
		case OpCheckpoint:
			n += format.UvarintLen(r.CheckpointLSN)
		case OpPut, OpDelete:
			n += format.UvarintLen(uint64(len(r.Key))) + len(r.Key) + len(r.Value)
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		crcAt := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = appendPayload(buf, r, v)
		binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[crcAt+4:]))
		return buf
	}
	at := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = appendPayload(buf, r, v)
	payload := buf[at+frameHeader:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendPayload serializes r's payload onto buf in the given log version.
func appendPayload(buf []byte, r Record, v format.Version) []byte {
	if v == format.V2 {
		buf = binary.AppendUvarint(buf, r.LSN)
		buf = append(buf, byte(r.Op))
		switch r.Op {
		case OpCheckpoint:
			return binary.AppendUvarint(buf, r.CheckpointLSN)
		case OpPut, OpDelete:
			buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
		default:
			return buf
		}
	} else {
		buf = binary.LittleEndian.AppendUint64(buf, r.LSN)
		buf = append(buf, byte(r.Op))
		switch r.Op {
		case OpCheckpoint:
			return binary.LittleEndian.AppendUint64(buf, r.CheckpointLSN)
		case OpPut, OpDelete:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Key)))
		default:
			return buf
		}
	}
	buf = append(buf, r.Key...)
	return append(buf, r.Value...)
}

// decodePayload parses a verified frame payload in the given log version.
func decodePayload(p []byte, v format.Version) (Record, error) {
	if v == format.V2 {
		return decodePayloadV2(p)
	}
	if len(p) < 9 {
		return Record{}, fmt.Errorf("wal: payload truncated to %d bytes", len(p))
	}
	r := Record{LSN: binary.LittleEndian.Uint64(p), Op: Op(p[8])}
	switch r.Op {
	case OpCheckpoint:
		if len(p) != 17 {
			return Record{}, fmt.Errorf("wal: checkpoint payload is %d bytes, want 17", len(p))
		}
		r.CheckpointLSN = binary.LittleEndian.Uint64(p[9:])
	case OpEnd:
		if len(p) != 9 {
			return Record{}, fmt.Errorf("wal: end payload is %d bytes, want 9", len(p))
		}
	case OpPut, OpDelete:
		if len(p) < 13 {
			return Record{}, fmt.Errorf("wal: record payload truncated to %d bytes", len(p))
		}
		klen := int(binary.LittleEndian.Uint32(p[9:]))
		if klen < 0 || 13+klen > len(p) {
			return Record{}, fmt.Errorf("wal: record key length %d exceeds payload", klen)
		}
		r.Key = string(p[13 : 13+klen])
		if v := p[13+klen:]; len(v) > 0 {
			r.Value = append([]byte(nil), v...)
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", byte(r.Op))
	}
	return r, nil
}

// decodePayloadV2 parses a version-2 frame payload.
func decodePayloadV2(p []byte) (Record, error) {
	lsn, n := format.Uvarint(p)
	if n == 0 || len(p) < n+1 {
		return Record{}, fmt.Errorf("wal: payload truncated to %d bytes", len(p))
	}
	r := Record{LSN: lsn, Op: Op(p[n])}
	p = p[n+1:]
	switch r.Op {
	case OpCheckpoint:
		ck, n := format.Uvarint(p)
		if n == 0 || n != len(p) {
			return Record{}, fmt.Errorf("wal: malformed checkpoint payload")
		}
		r.CheckpointLSN = ck
	case OpEnd:
		if len(p) != 0 {
			return Record{}, fmt.Errorf("wal: malformed end payload")
		}
	case OpPut, OpDelete:
		kl, n := format.Uvarint(p)
		if n == 0 || uint64(len(p)-n) < kl {
			return Record{}, fmt.Errorf("wal: record key length %d exceeds payload", kl)
		}
		r.Key = string(p[n : n+int(kl)])
		if v := p[n+int(kl):]; len(v) > 0 {
			r.Value = append([]byte(nil), v...)
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", byte(r.Op))
	}
	return r, nil
}

// Tail describes where a scan stopped and why.
type Tail struct {
	// ValidSize is the live length of the log: the byte offset of the end
	// of the last whole, verified record frame, where the end frame (if
	// any) starts. It is where appends resume, and the size a tail repair
	// truncates the log to.
	ValidSize int64
	// Damaged reports bytes after ValidSize that do not parse: a torn or
	// damaged in-flight append (the normal crash signature), or — when
	// records were lost mid-log — media damage.
	Damaged bool
	// Remaining counts the unparseable bytes.
	Remaining int64
	// Reason describes the first failure ("frame truncated", "checksum
	// mismatch", "lsn break", a payload decode error).
	Reason string
}

// Scan parses the log image in data: every whole frame whose checksum
// and payload verify, in order, plus the tail state and the log's
// on-disk version (0 for an empty or headerless-and-frameless image).
// A log ends cleanly at EOF (a closed log, or one from an earlier build)
// or at an end frame whose LSN follows the last record's; the bytes past
// an end frame are a rewound log's dead tail and are not read. Every
// record's LSN must be the previous one's plus one: a frame that breaks
// the sequence is an older generation's, exposed by a torn append, and
// ends the scan as damage. Scanning stops at the first damaged frame —
// the bytes beyond it are unrecoverable from the log alone (frame
// boundaries are lost), which is what demotes recovery to the salvage
// scan when anything but a clean tail is cut off.
//
// A log whose header carries a version this build does not know returns
// *format.UnknownVersionError. That is NOT tail damage: the bytes are a
// future build's intact log, and truncating them would destroy committed
// records — the caller must refuse to open, never repair.
func Scan(data []byte) ([]Record, Tail, format.Version, error) {
	var recs []Record
	off := int64(0)
	ver := format.Version(0)
	fail := func(reason string) ([]Record, Tail, format.Version, error) {
		return recs, Tail{ValidSize: off, Damaged: true, Remaining: int64(len(data)) - off, Reason: reason}, ver, nil
	}
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == logMagic {
		if len(data) < logHeaderSize {
			return fail(fmt.Sprintf("log header truncated to %d bytes", len(data)))
		}
		if v := data[4]; v != byte(format.V2) {
			return nil, Tail{}, 0, &format.UnknownVersionError{Surface: "wal", Version: uint32(v)}
		}
		ver = format.V2
		off = logHeaderSize
	} else if len(data) > 0 {
		ver = format.V1
	}
	for int(off) < len(data) {
		rest := data[off:]
		var n, hdr int64
		if ver == format.V2 {
			pl, un := format.Uvarint(rest)
			if un == 0 {
				return fail(fmt.Sprintf("frame header truncated to %d bytes", len(rest)))
			}
			n, hdr = int64(pl), int64(un)+4
			if len(rest) < int(hdr) {
				return fail(fmt.Sprintf("frame header truncated to %d bytes", len(rest)))
			}
		} else {
			if len(rest) < frameHeader {
				return fail(fmt.Sprintf("frame header truncated to %d bytes", len(rest)))
			}
			n, hdr = int64(binary.LittleEndian.Uint32(rest)), frameHeader
		}
		if n == 0 {
			return fail("zero-length frame")
		}
		if hdr+n > int64(len(rest)) {
			return fail(fmt.Sprintf("frame truncated: %d payload bytes declared, %d present", n, int64(len(rest))-hdr))
		}
		payload := rest[hdr : hdr+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[hdr-4:]) {
			return fail("checksum mismatch")
		}
		rec, err := decodePayload(payload, ver)
		if err != nil {
			return fail(err.Error())
		}
		if len(recs) > 0 {
			if prev := recs[len(recs)-1].LSN; rec.LSN != prev+1 {
				return fail(fmt.Sprintf("lsn break: %d after %d", rec.LSN, prev))
			}
		}
		if rec.Op == OpEnd {
			return recs, Tail{ValidSize: off}, ver, nil
		}
		recs = append(recs, rec)
		off += hdr + n
	}
	return recs, Tail{ValidSize: off}, ver, nil
}
