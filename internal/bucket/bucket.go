// Package bucket implements the fixed-capacity record containers of trie
// hashing. Buckets are the unit of transfer between the file and main
// memory; each holds up to b records sorted by primary key, so the split
// algorithms can address "the sequence B of b+1 keys to split" directly and
// in-bucket search is binary.
package bucket

import (
	"encoding/binary"
	"fmt"
	"strings"

	"triehash/internal/format"
)

// Record is one stored record: a primary key and an opaque value. Only the
// key participates in address computation.
type Record struct {
	Key   string
	Value []byte
}

// Bucket is a key-sorted sequence of records. Capacity is enforced by the
// file layer, not here: splitting needs the transient b+1-th record.
//
// Every bucket also carries its logical-path bound in its header — the
// known digits of the upper boundary of its key range (nil = the infinite
// bound). The paper's conclusion describes exactly this ("logical paths,
// assumed stored on the disk, for instance in the headers of the
// buckets") as the basis of trie reconstruction after a crash.
type Bucket struct {
	bound []byte // upper bound of the key range; nil = infinite
	recs  []Record

	// decodedFrom records which on-disk version DecodeBinary read this
	// bucket from (0 for buckets built in memory) — the per-page figure
	// Scrub and thcheck report for mixed-version files.
	decodedFrom format.Version
}

// DecodedFormat returns the on-disk version this bucket was decoded
// from, or 0 for a bucket that was never deserialized.
func (b *Bucket) DecodedFormat() format.Version { return b.decodedFrom }

// Bound returns the bucket's logical-path bound (nil = infinite). The
// returned slice is read-only; it is never overwritten in place by a
// later SetBound, so callers may hold it across bound updates.
func (b *Bucket) Bound() []byte { return b.bound }

// SetBound records the bucket's logical-path bound. The slice is copied
// into fresh storage: reusing the old backing array would mutate slices
// previously returned by Bound under their holders, and keeping a
// reference to the caller's array would let later caller writes change
// the bucket — bounds alias in neither direction.
func (b *Bucket) SetBound(bound []byte) {
	if bound == nil {
		b.bound = nil
		return
	}
	b.bound = append(make([]byte, 0, len(bound)), bound...)
}

// New returns an empty bucket with room pre-allocated for capacity records.
func New(capacity int) *Bucket {
	return &Bucket{recs: make([]Record, 0, capacity+1)}
}

// Len returns the number of records.
func (b *Bucket) Len() int { return len(b.recs) }

// At returns record i in key order.
func (b *Bucket) At(i int) Record { return b.recs[i] }

// Keys returns the keys in ascending order. The slice is freshly allocated.
func (b *Bucket) Keys() []string {
	out := make([]string, len(b.recs))
	for i, r := range b.recs {
		out[i] = r.Key
	}
	return out
}

// search returns the insertion index of key and whether it is present.
// The binary search is hand-rolled rather than sort.Search so the Get hot
// path stays free of func values and allocates nothing.
func (b *Bucket) search(key string) (int, bool) {
	lo, hi := 0, len(b.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.recs[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.recs) && b.recs[lo].Key == key
}

// Get returns the value stored under key.
func (b *Bucket) Get(key string) ([]byte, bool) {
	if i, ok := b.search(key); ok {
		return b.recs[i].Value, true
	}
	return nil, false
}

// Put inserts or replaces the record for key and reports whether the key
// was already present.
func (b *Bucket) Put(key string, value []byte) bool {
	i, ok := b.search(key)
	if ok {
		b.recs[i].Value = value
		return true
	}
	b.recs = append(b.recs, Record{})
	copy(b.recs[i+1:], b.recs[i:])
	b.recs[i] = Record{Key: key, Value: value}
	return false
}

// Delete removes the record for key, reporting whether it existed.
func (b *Bucket) Delete(key string) bool {
	i, ok := b.search(key)
	if !ok {
		return false
	}
	copy(b.recs[i:], b.recs[i+1:])
	b.recs[len(b.recs)-1] = Record{}
	b.recs = b.recs[:len(b.recs)-1]
	return true
}

// MinKey and MaxKey return the smallest and largest keys; both panic on an
// empty bucket.
func (b *Bucket) MinKey() string { return b.recs[0].Key }

// MaxKey returns the largest key.
func (b *Bucket) MaxKey() string { return b.recs[len(b.recs)-1].Key }

// Ascend calls fn for each record with key in [from, to] in ascending
// order until fn returns false. An empty `to` means no upper limit.
func (b *Bucket) Ascend(from, to string, fn func(Record) bool) bool {
	i, _ := b.search(from)
	for ; i < len(b.recs); i++ {
		if to != "" && b.recs[i].Key > to {
			return true
		}
		if !fn(b.recs[i]) {
			return false
		}
	}
	return true
}

// SplitOff removes every record whose key is strictly greater than the
// keep predicate allows and returns them, preserving order. keep reports
// whether a key stays in this bucket.
func (b *Bucket) SplitOff(keep func(key string) bool) []Record {
	stay := b.recs[:0]
	var moved []Record
	for _, r := range b.recs {
		if keep(r.Key) {
			stay = append(stay, r)
		} else {
			moved = append(moved, r)
		}
	}
	// Zero the tail so moved records do not linger in the backing array.
	for i := len(stay); i < len(b.recs); i++ {
		b.recs[i] = Record{}
	}
	b.recs = stay
	return moved
}

// Absorb inserts records (which must be sorted and disjoint from the
// bucket's range) into the bucket.
func (b *Bucket) Absorb(recs []Record) {
	for _, r := range recs {
		b.Put(r.Key, r.Value)
	}
}

// Clone returns a deep copy of the bucket (values are shared: records are
// treated as immutable once stored).
func (b *Bucket) Clone() *Bucket {
	c := &Bucket{recs: append([]Record(nil), b.recs...)}
	if b.bound != nil {
		c.bound = append([]byte(nil), b.bound...)
	}
	return c
}

// Snapshot returns a copy of the bucket whose values the caller's
// buffers cannot reach. A value that is the very slice base holds is
// shared, since base's bytes are already the snapshot owner's; every other
// value is copied into one arena, capacity-capped as a decoded page's are.
// base may be nil. The bound is shared too: no bucket writes its bound in
// place (SetBound). A buffer pool installs this with its resident frame
// as base, so a caller reusing the slice it passed to Put cannot change
// what the pool serves, and a write-through copies only the values the
// write changed.
func (b *Bucket) Snapshot(base *Bucket) *Bucket {
	n := 0
	for i, j := 0, 0; i < len(b.recs); i++ {
		if !b.sharesValue(i, base, &j) {
			n += len(b.recs[i].Value)
		}
	}
	vals := make([]byte, 0, n)
	c := &Bucket{bound: b.bound, recs: append([]Record(nil), b.recs...)}
	for i, j := 0, 0; i < len(c.recs); i++ {
		if !b.sharesValue(i, base, &j) && len(c.recs[i].Value) > 0 {
			a := len(vals)
			vals = append(vals, c.recs[i].Value...)
			c.recs[i].Value = vals[a:len(vals):len(vals)]
		}
	}
	return c
}

// sharesValue reports whether record i's value is a non-empty slice base
// holds: the same bytes, not equal ones. *j walks base's records in step
// with ascending i.
func (b *Bucket) sharesValue(i int, base *Bucket, j *int) bool {
	v := b.recs[i].Value
	if base == nil || len(v) == 0 {
		return false
	}
	same := func() bool {
		if *j == len(base.recs) {
			return false
		}
		w := base.recs[*j].Value
		return len(w) == len(v) && &w[0] == &v[0]
	}
	if !same() {
		// The walk fell out of step at a record the write inserted,
		// replaced or deleted: realign it by key.
		for *j < len(base.recs) && base.recs[*j].Key < b.recs[i].Key {
			*j++
		}
		if !same() {
			return false
		}
	}
	*j++
	return true
}

// v2Magic opens a version-2 bucket page. The value is provably not a v1
// prefix: a v1 page starts with its bound length — either ^uint32(0)
// (the infinite bound) or a real length far below 0xFFFFFFFE.
const v2Magic = 0xFFFFFFFE

// Bytes returns the serialized size of the bucket under AppendBinary.
func (b *Bucket) Bytes() int {
	n := 8 + len(b.bound)
	for _, r := range b.recs {
		n += 8 + len(r.Key) + len(r.Value)
	}
	return n
}

// sharedPrefix returns the number of leading bytes a shares with b. The
// encoder compares a key with its reference (the bucket's bound for the
// first record, the previous key after that), the page search a key with
// the one it looks for. Comparing in place keeps both free of conversions.
func sharedPrefix[A, B string | []byte](a A, b B) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// prefixLen is the shared-prefix length record i is encoded with.
func (b *Bucket) prefixLen(i int) int {
	if i == 0 {
		return sharedPrefix(b.recs[0].Key, b.bound)
	}
	return sharedPrefix(b.recs[i].Key, b.recs[i-1].Key)
}

// EncodedLen returns the exact serialized size of the bucket under
// AppendFormat(v) without materializing the bytes — the figure the byte-
// budget gates compare against the slot payload.
func (b *Bucket) EncodedLen(v format.Version) int {
	if v != format.V2 {
		return b.Bytes()
	}
	n := 5 // magic + version byte
	if b.bound == nil {
		n += format.UvarintLen(0)
	} else {
		n += format.UvarintLen(uint64(len(b.bound)+1)) + len(b.bound)
	}
	n += format.UvarintLen(uint64(len(b.recs)))
	for i, r := range b.recs {
		cp := b.prefixLen(i)
		suffix := len(r.Key) - cp
		n += format.UvarintLen(uint64(cp)) +
			format.UvarintLen(uint64(suffix)) + suffix +
			format.UvarintLen(uint64(len(r.Value))) + len(r.Value)
	}
	return n
}

// AppendFormat serializes the bucket into buf at on-disk version v and
// returns the extended slice.
func (b *Bucket) AppendFormat(buf []byte, v format.Version) []byte {
	if v != format.V2 {
		return b.AppendBinary(buf)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], v2Magic)
	buf = append(buf, n[:]...)
	buf = append(buf, byte(format.V2))
	if b.bound == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(b.bound)+1))
		buf = append(buf, b.bound...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.recs)))
	// Keys compress against the previous key (the bucket's bound for the
	// first record): records in a leaf share the leaf's trie-path prefix
	// and sorted neighbours share even longer runs.
	for i, r := range b.recs {
		cp := b.prefixLen(i)
		buf = binary.AppendUvarint(buf, uint64(cp))
		buf = binary.AppendUvarint(buf, uint64(len(r.Key)-cp))
		buf = append(buf, r.Key[cp:]...)
		buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
		buf = append(buf, r.Value...)
	}
	return buf
}

// AppendBinary serializes the bucket into buf and returns the extended
// slice in the version-1 layout: the bound header (length-prefixed; ^0
// marks the infinite bound), then a record count and length-prefixed
// key/value pairs.
func (b *Bucket) AppendBinary(buf []byte) []byte {
	var n [4]byte
	if b.bound == nil {
		binary.LittleEndian.PutUint32(n[:], ^uint32(0))
		buf = append(buf, n[:]...)
	} else {
		binary.LittleEndian.PutUint32(n[:], uint32(len(b.bound)))
		buf = append(buf, n[:]...)
		buf = append(buf, b.bound...)
	}
	binary.LittleEndian.PutUint32(n[:], uint32(len(b.recs)))
	buf = append(buf, n[:]...)
	for _, r := range b.recs {
		binary.LittleEndian.PutUint32(n[:], uint32(len(r.Key)))
		buf = append(buf, n[:]...)
		buf = append(buf, r.Key...)
		binary.LittleEndian.PutUint32(n[:], uint32(len(r.Value)))
		buf = append(buf, n[:]...)
		buf = append(buf, r.Value...)
	}
	return buf
}

// DecodeBinary reconstructs a bucket serialized by AppendFormat (either
// version, dispatched on the leading magic) and returns the number of
// bytes consumed. A version this build does not know surfaces as
// *format.UnknownVersionError.
func DecodeBinary(buf []byte) (*Bucket, int, error) {
	if len(buf) >= 4 && binary.LittleEndian.Uint32(buf) == v2Magic {
		return decodeV2(buf)
	}
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("bucket: decode: truncated bound header")
	}
	b := &Bucket{decodedFrom: format.V1}
	off := 4
	if bl := binary.LittleEndian.Uint32(buf); bl != ^uint32(0) {
		if int(bl) > len(buf)-off {
			return nil, 0, fmt.Errorf("bucket: decode: truncated bound of %d bytes", bl)
		}
		b.bound = append([]byte(nil), buf[off:off+int(bl)]...)
		off += int(bl)
	}
	if len(buf) < off+4 {
		return nil, 0, fmt.Errorf("bucket: decode: truncated count")
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	// Each record costs at least its two 4-byte length prefixes; reject
	// counts the remaining bytes cannot hold before allocating.
	if n > (len(buf)-off)/8 {
		return nil, 0, fmt.Errorf("bucket: decode: record count %d exceeds page", n)
	}
	// One spare slot: a bucket read to be written back usually gains a
	// record, and Put's append then needs no regrowth.
	b.recs = make([]Record, 0, n+1)
	prev := ""
	for i := 0; i < n; i++ {
		if len(buf) < off+4 {
			return nil, 0, fmt.Errorf("bucket: decode: truncated key length at record %d", i)
		}
		kl := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if len(buf) < off+kl+4 {
			return nil, 0, fmt.Errorf("bucket: decode: truncated key at record %d", i)
		}
		key := string(buf[off : off+kl])
		off += kl
		vl := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if len(buf) < off+vl {
			return nil, 0, fmt.Errorf("bucket: decode: truncated value at record %d", i)
		}
		var val []byte
		if vl > 0 {
			val = append([]byte(nil), buf[off:off+vl]...)
		}
		off += vl
		if i > 0 && key <= prev {
			return nil, 0, fmt.Errorf("bucket: decode: keys out of order (%q after %q)", key, prev)
		}
		prev = key
		b.recs = append(b.recs, Record{Key: key, Value: val})
	}
	return b, off, nil
}

// v2Header parses a version-2 page's header and returns its bound (nil
// for the infinite bound; it aliases buf), its record count and the
// offset of its first record.
func v2Header(buf []byte) ([]byte, int, int, error) {
	if len(buf) < 5 {
		return nil, 0, 0, fmt.Errorf("bucket: decode: truncated v2 header")
	}
	if v := buf[4]; v != byte(format.V2) {
		return nil, 0, 0, &format.UnknownVersionError{Surface: "bucket page", Version: uint32(v)}
	}
	off := 5
	bc, n := format.Uvarint(buf[off:])
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("bucket: decode: truncated bound length")
	}
	off += n
	var bound []byte
	if bc > 0 {
		if bc-1 > uint64(len(buf)-off) {
			return nil, 0, 0, fmt.Errorf("bucket: decode: truncated bound of %d bytes", bc-1)
		}
		bound = buf[off : off+int(bc-1)]
		off += int(bc - 1)
	}
	cnt, n := format.Uvarint(buf[off:])
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("bucket: decode: truncated count")
	}
	off += n
	// Each record costs at least 3 bytes (three uvarints); reject counts
	// the remaining bytes cannot possibly hold before allocating.
	if cnt > uint64(len(buf)-off)/3+1 {
		return nil, 0, 0, fmt.Errorf("bucket: decode: record count %d exceeds page", cnt)
	}
	return bound, int(cnt), off, nil
}

// decodeV2 reconstructs a version-2 bucket page.
func decodeV2(buf []byte) (*Bucket, int, error) {
	bound, cnt, off, err := v2Header(buf)
	if err != nil {
		return nil, 0, err
	}
	b := &Bucket{decodedFrom: format.V2}
	if len(bound) > 0 {
		b.bound = append([]byte(nil), bound...)
	}
	// Pass 1 checks every record's framing and totals the expanded key
	// bytes and the value bytes. Pass 2 then fills two arenas allocated
	// once at exactly those sizes: all keys in one string (the previous
	// key, already in it, supplies each shared prefix) and all values in
	// one byte slice, which the records sub-slice. That is five
	// allocations per page whatever its record count, and a page's
	// arenas stay as small as its records. Value sub-slices are
	// capacity-capped so a caller appending to one cannot clobber its
	// neighbour.
	keyBytes, valBytes := 0, 0
	prevLen := len(b.bound)
	for i, p := 0, off; i < cnt; i++ {
		cp, n := format.Uvarint(buf[p:])
		if n == 0 {
			return nil, 0, fmt.Errorf("bucket: decode: truncated prefix length at record %d", i)
		}
		p += n
		if cp > uint64(prevLen) {
			return nil, 0, fmt.Errorf("bucket: decode: shared prefix %d exceeds reference key of %d bytes at record %d", cp, prevLen, i)
		}
		sl, n := format.Uvarint(buf[p:])
		if n == 0 {
			return nil, 0, fmt.Errorf("bucket: decode: truncated suffix length at record %d", i)
		}
		p += n
		if sl > uint64(len(buf)-p) {
			return nil, 0, fmt.Errorf("bucket: decode: truncated key suffix at record %d", i)
		}
		p += int(sl)
		vl, n := format.Uvarint(buf[p:])
		if n == 0 {
			return nil, 0, fmt.Errorf("bucket: decode: truncated value length at record %d", i)
		}
		p += n
		if vl > uint64(len(buf)-p) {
			return nil, 0, fmt.Errorf("bucket: decode: truncated value at record %d", i)
		}
		p += int(vl)
		prevLen = int(cp + sl)
		keyBytes += prevLen
		valBytes += int(vl)
	}
	var keys strings.Builder
	keys.Grow(keyBytes)
	vals := make([]byte, 0, valBytes)
	b.recs = make([]Record, cnt, cnt+1) // one spare slot, as in the v1 decoder
	prev := ""
	for i := range b.recs {
		// Pass 1 checked these lengths.
		cp, n := format.Uvarint(buf[off:])
		off += n
		sl, n := format.Uvarint(buf[off:])
		off += n
		start := keys.Len()
		if i == 0 {
			keys.Write(b.bound[:cp])
		} else {
			keys.WriteString(prev[:cp])
		}
		keys.Write(buf[off : off+int(sl)])
		off += int(sl)
		// The builder never rewrites bytes it holds, so the key stays
		// valid as the arena fills.
		key := keys.String()[start:]
		// key[:cp] was copied out of prev, so ordering reduces to the
		// tails beyond the shared prefix.
		if i > 0 && key[cp:] <= prev[cp:] {
			return nil, 0, fmt.Errorf("bucket: decode: keys out of order (%q after %q)", key, prev)
		}
		vl, n := format.Uvarint(buf[off:])
		off += n
		if vl > 0 {
			a := len(vals)
			vals = append(vals, buf[off:off+int(vl)]...)
			b.recs[i].Value = vals[a:len(vals):len(vals)]
			off += int(vl)
		}
		b.recs[i].Key = key
		prev = key
	}
	return b, off, nil
}

// SearchPage looks key up in a page serialized by AppendFormat without
// building a bucket, and reports the version the page was stored in. A
// version-2 page is searched in one forward pass that makes every check
// decodeV2 makes and runs to the end of the page even after key is found,
// so SearchPage fails exactly where DecodeBinary fails: a malformed page
// is an error whatever key is asked for. The value aliases page (nil when
// empty, as the decoder returns it). A version-1 page is decoded and
// searched.
func SearchPage(page []byte, key string) ([]byte, bool, format.Version, error) {
	if len(page) < 4 || binary.LittleEndian.Uint32(page) != v2Magic {
		b, _, err := DecodeBinary(page)
		if err != nil {
			return nil, false, 0, err
		}
		v, ok := b.Get(key)
		return v, ok, format.V1, nil
	}
	v, ok, err := searchV2(page, key)
	return v, ok, format.V2, err
}

// searchV2 is SearchPage on a version-2 page. The current key lives in a
// stack buffer (grown only for longer keys): each record cuts it to the
// shared prefix and appends the suffix, after comparing the suffix with
// the old key's tail — the order check. Matching key costs no full-key
// compare: the prefix the current key shares with key is carried from
// record to record.
func searchV2(buf []byte, key string) ([]byte, bool, error) {
	bound, cnt, off, err := v2Header(buf)
	if err != nil {
		return nil, false, err
	}
	var stack [64]byte
	// The bound is the first record's reference key.
	cur := append(stack[:0], bound...)
	// m is the length of the prefix the current key shares with key.
	m := sharedPrefix(key, cur)
	var val []byte
	found := false
	for i := 0; i < cnt; i++ {
		// The framing checks are decodeV2's pass 1, inline in the hot
		// loop; FuzzSearchPageMatchesDecode holds the two to one verdict.
		c, n := format.Uvarint(buf[off:])
		if n == 0 {
			return nil, false, fmt.Errorf("bucket: search: truncated prefix length at record %d", i)
		}
		off += n
		if c > uint64(len(cur)) {
			return nil, false, fmt.Errorf("bucket: search: shared prefix %d exceeds reference key of %d bytes at record %d", c, len(cur), i)
		}
		cp := int(c)
		sl, n := format.Uvarint(buf[off:])
		if n == 0 {
			return nil, false, fmt.Errorf("bucket: search: truncated suffix length at record %d", i)
		}
		off += n
		if sl > uint64(len(buf)-off) {
			return nil, false, fmt.Errorf("bucket: search: truncated key suffix at record %d", i)
		}
		suffix := buf[off : off+int(sl)]
		off += int(sl)
		vl, n := format.Uvarint(buf[off:])
		if n == 0 {
			return nil, false, fmt.Errorf("bucket: search: truncated value length at record %d", i)
		}
		off += n
		if vl > uint64(len(buf)-off) {
			return nil, false, fmt.Errorf("bucket: search: truncated value at record %d", i)
		}
		value := buf[off : off+int(vl) : off+int(vl)]
		off += int(vl)
		if i > 0 {
			// The key must sort after the old one: its suffix after the
			// old key's tail.
			tail := cur[cp:]
			j := sharedPrefix(suffix, tail)
			if j == len(suffix) || (j < len(tail) && suffix[j] < tail[j]) {
				return nil, false, fmt.Errorf("bucket: search: keys out of order at record %d", i)
			}
		}
		cur = append(cur[:cp], suffix...)
		// A key that keeps more of the old one than m still diverges
		// from key at m.
		if cp <= m {
			m = cp + sharedPrefix(key[cp:], suffix)
		}
		if !found && m == len(key) && m == len(cur) {
			found = true
			if len(value) > 0 {
				val = value
			}
		}
	}
	return val, found, nil
}
