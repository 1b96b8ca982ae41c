package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"triehash/internal/format"
	"triehash/internal/store"
	"triehash/internal/trie"
)

const metaMagic = 0x5448434C // "THCL"

// SaveMeta serializes everything the file needs besides its bucket store:
// the configuration, the record/split counters and the trie. Together with
// a persistent Store (store.FileStore) this makes the file durable. The
// header's version field mirrors cfg.Format — it announces both the
// header layout (unchanged across v1/v2) and the trie page encoding that
// follows it, so a v1 file upgrades wholesale at its next SaveMeta.
func (f *File) SaveMeta() []byte {
	var hdr [40]byte
	binary.LittleEndian.PutUint32(hdr[0:], metaMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.cfg.Format))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.cfg.Capacity))
	hdr[12] = byte(f.cfg.Mode)
	hdr[13] = byte(f.cfg.Redistribution)
	hdr[14] = byte(f.cfg.Merge)
	if f.cfg.CollapseOnMerge {
		hdr[15] |= 1
	}
	if f.cfg.TombstoneMerges {
		hdr[15] |= 2
	}
	binary.LittleEndian.PutUint32(hdr[16:], uint32(f.cfg.SplitPos))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(f.cfg.BoundPos))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(f.nkeys))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(f.splits))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(f.redistributions))
	buf := f.trie.AppendFormat(hdr[:], f.cfg.Format)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf))
	return append(buf, sum[:]...)
}

// Open reattaches a file previously serialized with SaveMeta to its bucket
// store.
func Open(meta []byte, st store.Store) (*File, error) {
	if len(meta) < 44 {
		return nil, fmt.Errorf("core: open: truncated metadata (%d bytes)", len(meta))
	}
	body, sum := meta[:len(meta)-4], binary.LittleEndian.Uint32(meta[len(meta)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("core: open: metadata checksum mismatch")
	}
	meta = body
	if binary.LittleEndian.Uint32(meta[0:]) != metaMagic {
		return nil, fmt.Errorf("core: open: bad magic")
	}
	if v := binary.LittleEndian.Uint32(meta[4:]); v != uint32(format.V1) && v != uint32(format.V2) {
		return nil, &format.UnknownVersionError{Surface: "meta", Version: v}
	}
	tr, _, err := trie.DecodeBinary(meta[40:])
	if err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	cfg := Config{
		Alphabet:        tr.Alphabet(),
		Capacity:        int(binary.LittleEndian.Uint32(meta[8:])),
		Mode:            trie.Mode(meta[12]),
		Redistribution:  Redistribution(meta[13]),
		Merge:           MergePolicy(meta[14]),
		CollapseOnMerge: meta[15]&1 != 0,
		TombstoneMerges: meta[15]&2 != 0,
		SplitPos:        int(binary.LittleEndian.Uint32(meta[16:])),
		BoundPos:        int(binary.LittleEndian.Uint32(meta[20:])),
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	tr.SetTombstoning(cfg.TombstoneMerges)
	f := &File{
		cfg:             cfg,
		trie:            tr,
		st:              st,
		nkeys:           int(binary.LittleEndian.Uint64(meta[24:])),
		splits:          int(binary.LittleEndian.Uint32(meta[32:])),
		redistributions: int(binary.LittleEndian.Uint32(meta[36:])),
	}
	return f.resolveStore(), nil
}

// BucketAddrs returns the bucket address of every non-nil trie leaf; a
// bucket with several leaves appears once per leaf.
func (f *File) BucketAddrs() []int32 {
	var out []int32
	for _, l := range f.trie.InorderLeafPtrs() {
		if !l.IsNil() {
			out = append(out, l.Addr())
		}
	}
	return out
}
