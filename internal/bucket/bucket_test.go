package bucket

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"triehash/internal/format"
)

func TestPutGetDelete(t *testing.T) {
	b := New(4)
	if _, ok := b.Get("x"); ok {
		t.Fatal("empty bucket claims a key")
	}
	if b.Put("m", []byte("1")) {
		t.Fatal("first Put reported replacement")
	}
	if !b.Put("m", []byte("2")) {
		t.Fatal("second Put did not report replacement")
	}
	b.Put("a", nil)
	b.Put("z", []byte("3"))
	if b.Len() != 3 {
		t.Fatalf("len %d", b.Len())
	}
	if v, ok := b.Get("m"); !ok || string(v) != "2" {
		t.Fatalf("Get(m) = %q %v", v, ok)
	}
	if !b.Delete("m") || b.Delete("m") {
		t.Fatal("Delete misbehaved")
	}
	if got := b.Keys(); !reflect.DeepEqual(got, []string{"a", "z"}) {
		t.Fatalf("keys %v", got)
	}
	if b.MinKey() != "a" || b.MaxKey() != "z" {
		t.Fatalf("min/max %q %q", b.MinKey(), b.MaxKey())
	}
}

func TestKeysSorted(t *testing.T) {
	f := func(in []string) bool {
		b := New(8)
		for _, k := range in {
			if k == "" {
				continue
			}
			b.Put(k, nil)
		}
		return sort.StringsAreSorted(b.Keys())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAscend(t *testing.T) {
	b := New(8)
	for _, k := range []string{"be", "by", "had", "he", "his"} {
		b.Put(k, []byte(k))
	}
	var got []string
	b.Ascend("by", "he", func(r Record) bool {
		got = append(got, r.Key)
		return true
	})
	if !reflect.DeepEqual(got, []string{"by", "had", "he"}) {
		t.Fatalf("ascend: %v", got)
	}
	// Unbounded top.
	got = nil
	b.Ascend("he", "", func(r Record) bool { got = append(got, r.Key); return true })
	if !reflect.DeepEqual(got, []string{"he", "his"}) {
		t.Fatalf("unbounded ascend: %v", got)
	}
	// Early abort.
	count := 0
	b.Ascend("", "", func(Record) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("abort after %d", count)
	}
}

func TestSplitOff(t *testing.T) {
	b := New(4)
	for _, k := range []string{"aa", "ab", "ba", "bb", "ca"} {
		b.Put(k, []byte(k))
	}
	moved := b.SplitOff(func(k string) bool { return k <= "ba" })
	if got := b.Keys(); !reflect.DeepEqual(got, []string{"aa", "ab", "ba"}) {
		t.Fatalf("stay: %v", got)
	}
	if len(moved) != 2 || moved[0].Key != "bb" || moved[1].Key != "ca" {
		t.Fatalf("moved: %v", moved)
	}
	// Absorb into a fresh bucket preserves order and values.
	nb := New(4)
	nb.Absorb(moved)
	if v, ok := nb.Get("ca"); !ok || string(v) != "ca" {
		t.Fatalf("absorbed value %q %v", v, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(4)
	b.Put("k", []byte("v"))
	c := b.Clone()
	c.Put("k2", nil)
	c.Delete("k")
	if b.Len() != 1 {
		t.Fatal("clone mutation leaked")
	}
}

// TestSnapshotOwnsValues: a snapshot keeps its values when the buffers
// they were put from are overwritten, keeps the nil/empty distinction,
// and copies only the values its base does not already hold.
func TestSnapshotOwnsValues(t *testing.T) {
	b := New(4)
	b.SetBound([]byte("z"))
	buf := []byte("original")
	b.Put("a", buf)
	b.Put("b", nil)
	b.Put("c", []byte{})
	s := b.Snapshot(nil)
	buf[0] = 'X'
	if v, _ := s.Get("a"); string(v) != "original" {
		t.Fatalf("snapshot value follows the caller's buffer: %q", v)
	}
	if string(s.Bound()) != "z" {
		t.Fatalf("snapshot bound %q", s.Bound())
	}
	if v, ok := s.Get("b"); !ok || v != nil {
		t.Fatalf("nil value became %q, %v", v, ok)
	}
	if v, ok := s.Get("c"); !ok || v == nil || len(v) != 0 {
		t.Fatalf("empty value became %q (nil %v), %v", v, v == nil, ok)
	}
	// Against a base, a value that is base's own slice is shared and
	// any other is copied.
	next := s.Clone()
	fresh := []byte("fresh")
	next.Put("d", fresh)
	s2 := next.Snapshot(s)
	a1, _ := s.Get("a")
	a2, _ := s2.Get("a")
	if &a1[0] != &a2[0] {
		t.Error("a value identical to base's was copied")
	}
	if d, _ := s2.Get("d"); &d[0] == &fresh[0] {
		t.Error("a value not in base was shared")
	}
}

// TestSearchPage checks the in-place search against the decoder on random
// pages of both versions — every stored key, absent keys between them,
// and keys past either end — and that a v2 search allocates nothing.
func TestSearchPage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var b *Bucket
		if trial%4 == 0 {
			b = sharedKeyBucket(rng)
		} else {
			b = New(12)
			if rng.Intn(2) == 0 {
				b.SetBound([]byte("k~"))
			}
			for i, n := 0, rng.Intn(12); i < n; i++ {
				v := make([]byte, rng.Intn(3)*40)
				rng.Read(v)
				b.Put(fmt.Sprintf("k%03d", rng.Intn(500)*2), v)
			}
		}
		probes := append(b.Keys(), "", "k", "k001", "k999", "~")
		for _, k := range b.Keys() {
			probes = append(probes, k+"0", k[:len(k)-1])
		}
		for _, v := range []format.Version{format.V1, format.V2} {
			page := b.AppendFormat(nil, v)
			for _, k := range probes {
				got, ok, ver, err := SearchPage(page, k)
				want, wantOK := b.Get(k)
				if err != nil || ver != v || ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("v%d SearchPage(%q) = %q, %v, v%d, %v; want %q, %v", v, k, got, ok, ver, err, want, wantOK)
				}
			}
		}
	}
	b := New(20)
	b.SetBound([]byte("user:9"))
	for i := 0; i < 20; i++ {
		b.Put(fmt.Sprintf("user:%04d", i*7), []byte("value"))
	}
	page := b.AppendFormat(nil, format.V2)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok, _, err := SearchPage(page, "user:0070"); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}); allocs != 0 {
		t.Errorf("SearchPage on a v2 page makes %v allocations, want 0", allocs)
	}
}

// TestSearchPageErrors: a malformed page fails the search whatever the
// key, even when the key sits before the damage; a future version is
// the typed refusal.
func TestSearchPageErrors(t *testing.T) {
	b := New(4)
	for _, k := range []string{"a", "b", "c"} {
		b.Put(k, []byte(k))
	}
	page := b.AppendFormat(nil, format.V2)
	for cut := 0; cut < len(page); cut++ {
		if _, _, _, err := SearchPage(page[:cut], "a"); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Swap the last two records' suffixes: "a", "c", "b" is out of order.
	bad := append([]byte(nil), page...)
	i, j := bytes.IndexByte(bad[5:], 'b')+5, bytes.LastIndexByte(bad, 'c')
	bad[i], bad[j-2] = 'c', 'b'
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Fatal("the reordered page decodes; the test page is wrong")
	}
	if _, _, _, err := SearchPage(bad, "a"); err == nil {
		t.Error("keys out of order not detected")
	}
	future := append([]byte(nil), page...)
	future[4] = 9
	var uve *format.UnknownVersionError
	if _, _, _, err := SearchPage(future, "a"); !errors.As(err, &uve) {
		t.Errorf("future version: %v, want *format.UnknownVersionError", err)
	}
}

func TestEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		b := New(8)
		for i := 0; i < rng.Intn(10); i++ {
			k := make([]byte, 1+rng.Intn(5))
			for j := range k {
				k[j] = byte('a' + rng.Intn(26))
			}
			v := make([]byte, rng.Intn(6))
			rng.Read(v)
			b.Put(string(k), v)
		}
		buf := b.AppendBinary(nil)
		if len(buf) != b.Bytes() {
			t.Fatalf("Bytes() = %d, serialized %d", b.Bytes(), len(buf))
		}
		back, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if !reflect.DeepEqual(back.Keys(), b.Keys()) {
			t.Fatalf("keys %v vs %v", back.Keys(), b.Keys())
		}
		for _, k := range b.Keys() {
			v1, _ := b.Get(k)
			v2, _ := back.Get(k)
			if string(v1) != string(v2) {
				t.Fatalf("value mismatch for %q", k)
			}
		}
	}
}

// sharedKeyBucket returns a random bucket whose keys of up to about 250
// bytes share all but their last bytes, so the v2 page stores each key
// as a few suffix bytes and the expanded keys outgrow the page.
func sharedKeyBucket(rng *rand.Rand) *Bucket {
	stem := make([]byte, 200+rng.Intn(48))
	for i := range stem {
		stem[i] = byte('a' + rng.Intn(26))
	}
	b := New(16)
	if rng.Intn(2) == 0 {
		b.SetBound(append(append([]byte(nil), stem...), '~'))
	}
	for i, n := 0, 1+rng.Intn(15); i < n; i++ {
		k := append(append([]byte(nil), stem[:len(stem)-rng.Intn(3)]...), byte('a'+rng.Intn(26)), byte('a'+rng.Intn(26)))
		v := make([]byte, rng.Intn(4))
		rng.Read(v)
		b.Put(string(k), v)
	}
	return b
}

// TestAppendFormatRoundTrip encodes random buckets at both versions
// after a non-empty prefix, the way a store encodes into a slot frame
// behind its header: the prefix stays untouched, EncodedLen equals the
// appended length, and decoding round-trips.
func TestAppendFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prefix := []byte("slot-hdr:")
	for trial := 0; trial < 200; trial++ {
		b := sharedKeyBucket(rng)
		for _, v := range []format.Version{format.V1, format.V2} {
			buf := b.AppendFormat(append(make([]byte, 0, 64), prefix...), v)
			if !bytes.Equal(buf[:len(prefix)], prefix) {
				t.Fatalf("v%d: AppendFormat changed the prefix to %q", v, buf[:len(prefix)])
			}
			page := buf[len(prefix):]
			if got := b.EncodedLen(v); got != len(page) {
				t.Fatalf("v%d: EncodedLen = %d, appended %d", v, got, len(page))
			}
			back, n, err := DecodeBinary(page)
			if err != nil {
				t.Fatalf("v%d: %v", v, err)
			}
			if n != len(page) || back.DecodedFormat() != v || !bytes.Equal(back.Bound(), b.Bound()) {
				t.Fatalf("v%d: consumed %d of %d, format %v, bound %q", v, n, len(page), back.DecodedFormat(), back.Bound())
			}
			if !reflect.DeepEqual(back.Keys(), b.Keys()) {
				t.Fatalf("v%d: keys %q, want %q", v, back.Keys(), b.Keys())
			}
			for i := 0; i < b.Len(); i++ {
				if !bytes.Equal(back.At(i).Value, b.At(i).Value) {
					t.Fatalf("v%d: value %d differs", v, i)
				}
			}
		}
	}
}

// TestEncodedLenZeroAlloc: the byte-budget gate measures a page on every
// Put, so measuring must not allocate.
func TestEncodedLenZeroAlloc(t *testing.T) {
	b := New(20)
	b.SetBound([]byte("user:9"))
	for i := 0; i < 20; i++ {
		b.Put(fmt.Sprintf("user:%04d", i*7), []byte("value"))
	}
	for _, v := range []format.Version{format.V1, format.V2} {
		if allocs := testing.AllocsPerRun(100, func() { b.EncodedLen(v) }); allocs != 0 {
			t.Errorf("EncodedLen(v%d) makes %v allocations, want 0", v, allocs)
		}
	}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = b.AppendFormat(buf[:0], format.V2) }); allocs != 0 {
		t.Errorf("AppendFormat into a large enough buffer makes %v allocations, want 0", allocs)
	}
}

// TestDecodedInsertReusesSpareSlot: a bucket read from a page is most
// often written back one record larger, so both decoders leave one spare
// slot and the insert makes no allocation beyond the decode's own.
func TestDecodedInsertReusesSpareSlot(t *testing.T) {
	b := New(20)
	b.SetBound([]byte("user:9"))
	for i := 0; i < 19; i++ {
		b.Put(fmt.Sprintf("user:%04d", i*7), []byte("value"))
	}
	const fresh = "user:0001" // absent: the keys step by 7
	for _, v := range []format.Version{format.V1, format.V2} {
		page := b.AppendFormat(nil, v)
		decode := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeBinary(page); err != nil {
				t.Fatal(err)
			}
		})
		insert := testing.AllocsPerRun(100, func() {
			d, _, err := DecodeBinary(page)
			if err != nil {
				t.Fatal(err)
			}
			if d.Put(fresh, nil) {
				t.Fatalf("%q already present", fresh)
			}
		})
		if insert != decode {
			t.Errorf("v%d: decode plus insert makes %v allocations, decode alone %v", v, insert, decode)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Error("nil must fail")
	}
	b := New(2)
	b.Put("ab", []byte("xy"))
	b.Put("cd", nil)
	buf := b.AppendBinary(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Out-of-order keys.
	bad := New(2)
	bad.recs = []Record{{Key: "b"}, {Key: "a"}}
	if _, _, err := DecodeBinary(bad.AppendBinary(nil)); err == nil {
		t.Error("out-of-order keys not detected")
	}
}

func TestBoundRoundTrip(t *testing.T) {
	b := New(4)
	if b.Bound() != nil {
		t.Fatal("fresh bucket must have the infinite bound")
	}
	b.Put("k", []byte("v"))
	b.SetBound([]byte("he"))
	buf := b.AppendBinary(nil)
	if len(buf) != b.Bytes() {
		t.Fatalf("Bytes() = %d, serialized %d", b.Bytes(), len(buf))
	}
	back, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Bound()) != "he" {
		t.Fatalf("bound lost: %q", back.Bound())
	}
	// Infinite bound survives too.
	b.SetBound(nil)
	back, _, err = DecodeBinary(b.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.Bound() != nil {
		t.Fatalf("infinite bound became %q", back.Bound())
	}
	// Clone copies the bound without aliasing.
	b.SetBound([]byte("xy"))
	c := b.Clone()
	b.SetBound([]byte("zz"))
	if string(c.Bound()) != "xy" {
		t.Fatalf("clone bound aliased: %q", c.Bound())
	}
}

func TestDecodeBoundErrors(t *testing.T) {
	b := New(2)
	b.SetBound([]byte("bound"))
	b.Put("k", nil)
	buf := b.AppendBinary(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// TestSetBoundAliasing audits both aliasing directions of SetBound: the
// caller's slice must not become the bucket's storage (later caller
// writes would silently change the bound), and a slice returned by Bound
// must survive a later SetBound unchanged (holders would otherwise see
// bounds rewritten under them).
func TestSetBoundAliasing(t *testing.T) {
	b := New(4)

	// Caller slice -> bucket: mutating the argument after SetBound must
	// not change the stored bound.
	arg := []byte("abc")
	b.SetBound(arg)
	arg[0] = 'X'
	if string(b.Bound()) != "abc" {
		t.Fatalf("bound aliases the caller's slice: %q", b.Bound())
	}

	// Bucket -> caller: a held Bound() slice must not be overwritten by a
	// later SetBound, including one that reuses the same backing length.
	held := b.Bound()
	b.SetBound([]byte("xyz"))
	if string(held) != "abc" {
		t.Fatalf("held bound rewritten by SetBound: %q", held)
	}

	// nil resets to the infinite bound without touching the held slice.
	b.SetBound(nil)
	if b.Bound() != nil {
		t.Fatalf("SetBound(nil) left %q", b.Bound())
	}
	if string(held) != "abc" {
		t.Fatalf("held bound rewritten by SetBound(nil): %q", held)
	}

	// Empty non-nil bounds stay distinguishable from the infinite bound:
	// the root leaf's logical path is "", which is not "no bound".
	b.SetBound([]byte{})
	if b.Bound() == nil {
		t.Fatal("empty bound collapsed to the infinite bound")
	}
}
