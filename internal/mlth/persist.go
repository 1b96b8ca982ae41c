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

// SaveMeta serializes the page hierarchy and counters; together with a
// persistent bucket store this makes the multilevel file durable. The
// version field mirrors Format(): the header layout is shared, the trie
// page encoding that follows is what changes between versions.
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
	cfg, err := f.cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("mlth: open: %w", err)
	}
	f.cfg = cfg
	return f, nil
}
