package mlth

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"triehash/internal/format"
	"triehash/internal/store"
	"triehash/internal/trie"
)

const metaMagic = 0x4D4C5448 // "MLTH"

// SetFormat selects the on-disk encoding version future SaveMeta calls
// (and the store the caller configures separately) write with.
func (f *File) SetFormat(v format.Version) {
	if v.Valid() {
		f.fmtv = v
	}
}

// Format returns the on-disk encoding version this file writes.
func (f *File) Format() format.Version {
	if f.fmtv == 0 {
		return format.Default
	}
	return f.fmtv
}

// modeRecordLen is the size of the record after the pages: the split
// mode (u8) and THCL's bounding-key position (u32).
const modeRecordLen = 5

// SaveMeta serializes the page hierarchy and counters; together with a
// persistent bucket store this makes the multilevel file durable. The
// version field mirrors Format(): the header layout is shared, the trie
// page encoding that follows is what changes between versions. The mode
// record follows the pages; readers that predate it ignore it.
func (f *File) SaveMeta() []byte {
	var hdr [40]byte
	binary.LittleEndian.PutUint32(hdr[0:], metaMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.Format()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.cfg.Capacity))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.cfg.PageCapacity))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(f.cfg.SplitPos))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.nkeys))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(f.splits))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(f.root))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(len(f.pages)))
	buf := hdr[:]
	for _, p := range f.pages {
		var lv [4]byte
		binary.LittleEndian.PutUint32(lv[:], uint32(p.level))
		buf = append(buf, lv[:]...)
		buf = p.tr.AppendFormat(buf, f.Format())
	}
	var mode [modeRecordLen]byte
	mode[0] = byte(f.cfg.Mode)
	binary.LittleEndian.PutUint32(mode[1:], uint32(f.cfg.BoundPos))
	buf = append(buf, mode[:]...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf))
	return append(buf, sum[:]...)
}

// Open reattaches a multilevel file serialized with SaveMeta to its
// bucket store.
func Open(meta []byte, st store.Store) (*File, error) {
	if len(meta) < 44 {
		return nil, fmt.Errorf("mlth: open: truncated metadata (%d bytes)", len(meta))
	}
	body, sum := meta[:len(meta)-4], binary.LittleEndian.Uint32(meta[len(meta)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("mlth: open: metadata checksum mismatch")
	}
	meta = body
	if binary.LittleEndian.Uint32(meta[0:]) != metaMagic {
		return nil, fmt.Errorf("mlth: open: bad magic")
	}
	if v := binary.LittleEndian.Uint32(meta[4:]); v != uint32(format.V1) && v != uint32(format.V2) {
		return nil, &format.UnknownVersionError{Surface: "meta", Version: v}
	}
	f := &File{
		st:     st,
		views:  store.NewViews(st),
		nkeys:  int(binary.LittleEndian.Uint64(meta[20:])),
		splits: int(binary.LittleEndian.Uint32(meta[28:])),
		root:   int32(binary.LittleEndian.Uint32(meta[32:])),
	}
	f.cfg = Config{
		Capacity:     int(binary.LittleEndian.Uint32(meta[8:])),
		PageCapacity: int(binary.LittleEndian.Uint32(meta[12:])),
		SplitPos:     int(binary.LittleEndian.Uint32(meta[16:])),
	}
	n := int(binary.LittleEndian.Uint32(meta[36:]))
	off := 40
	for i := 0; i < n; i++ {
		if len(meta) < off+4 {
			return nil, fmt.Errorf("mlth: open: truncated page %d", i)
		}
		level := int(binary.LittleEndian.Uint32(meta[off:]))
		off += 4
		tr, used, err := trie.DecodeBinary(meta[off:])
		if err != nil {
			return nil, fmt.Errorf("mlth: open: page %d: %w", i, err)
		}
		off += used
		f.pages = append(f.pages, &page{level: level, tr: tr})
		if i == 0 {
			f.cfg.Alphabet = tr.Alphabet()
		}
	}
	if len(f.pages) == 0 || int(f.root) >= len(f.pages) {
		return nil, fmt.Errorf("mlth: open: invalid root page %d of %d", f.root, len(f.pages))
	}
	if len(meta) >= off+modeRecordLen {
		f.cfg.Mode = trie.Mode(meta[off])
		f.cfg.BoundPos = int(binary.LittleEndian.Uint32(meta[off+1:]))
	} else if f.sharesLeaves() {
		// A meta without the record predates it. Only THCL gives a bucket
		// two leaves, so a shared leaf marks a THCL file (with the default
		// bounding position); a file without one is a valid basic file
		// and reads as basic TH.
		f.cfg.Mode = trie.ModeTHCL
	}
	cfg, err := f.cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("mlth: open: %w", err)
	}
	f.cfg = cfg
	return f, nil
}

// BucketAddrs returns the bucket address of every non-nil leaf of the
// file-level pages; a bucket with several leaves appears once per leaf.
func (f *File) BucketAddrs() []int32 {
	var out []int32
	for _, p := range f.pages {
		if p.level != 0 {
			continue
		}
		for _, l := range p.tr.InorderLeafPtrs() {
			if !l.IsNil() {
				out = append(out, l.Addr())
			}
		}
	}
	return out
}

// sharesLeaves reports whether some bucket has two leaves.
func (f *File) sharesLeaves() bool {
	seen := make(map[int32]bool)
	for _, a := range f.BucketAddrs() {
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}
