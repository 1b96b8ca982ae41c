package bucket

import (
	"bytes"
	"math/rand"
	"testing"

	"triehash/internal/format"
)

// v2Seeds are the bucket-page fuzzers' version-2 seeds: an empty page, a
// page with a bound and a nil value, its truncation, a flipped byte, a
// future version, and long keys that share all but their last bytes.
func v2Seeds() [][]byte {
	b := New(8)
	b.SetBound([]byte("user:9999"))
	for _, k := range []string{"user:0001", "user:0002", "user:02", "zz"} {
		b.Put(k, []byte("value-"+k))
	}
	b.Put("user:0003", nil) // nil value: the empty/nil distinction must survive
	enc := b.AppendFormat(nil, format.V2)
	corrupt := append([]byte(nil), enc...)
	corrupt[len(corrupt)/2] ^= 0xFF
	future := append([]byte(nil), enc...)
	future[4] = 9 // unknown future version: typed error, no panic
	return [][]byte{
		New(4).AppendFormat(nil, format.V2),
		enc,
		enc[:len(enc)-3],
		corrupt,
		future,
		// The expanded keys outgrow the page: the case the decoder's key
		// arena must size for and the search's key buffer must grow for.
		sharedKeyBucket(rand.New(rand.NewSource(1))).AppendFormat(nil, format.V2),
	}
}

// FuzzBucketDecodeV2 drives the bucket-page decoder with arbitrary
// bytes, seeded with version-2 encodings (the prefix-compressed varint
// layout). The decoder must never panic, must reject impossible record
// counts before allocating, and on success must round-trip canonically:
// re-encoding the decoded bucket at the version it was stored in and
// decoding again yields the same records and byte-identical bytes. Input
// bytes themselves need not re-encode identically — the decoder accepts
// non-minimal uvarints and under-shared prefixes that the encoder never
// emits — which is why the property is canonical-form, not identity.
func FuzzBucketDecodeV2(f *testing.F) {
	for _, page := range v2Seeds() {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeBinary consumed %d of %d bytes", n, len(data))
		}
		v := b.DecodedFormat()
		enc := b.AppendFormat(nil, v)
		if got := b.EncodedLen(v); got != len(enc) {
			t.Fatalf("EncodedLen(%v) = %d, encoding is %d bytes", v, got, len(enc))
		}
		back, n2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if back.Len() != b.Len() || !bytes.Equal(back.Bound(), b.Bound()) {
			t.Fatalf("round-trip changed shape: %d recs bound %q, want %d recs bound %q",
				back.Len(), back.Bound(), b.Len(), b.Bound())
		}
		for i := 0; i < b.Len(); i++ {
			r, s := b.At(i), back.At(i)
			if r.Key != s.Key || !bytes.Equal(r.Value, s.Value) {
				t.Fatalf("record %d changed: %q/%q, want %q/%q", i, s.Key, s.Value, r.Key, r.Value)
			}
		}
		if enc2 := back.AppendFormat(nil, v); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical: enc(dec(enc)) differs from enc")
		}
	})
}

// FuzzSearchPageMatchesDecode holds the in-place search to the decoder:
// on arbitrary bytes and an arbitrary key SearchPage never panics, fails
// exactly when DecodeBinary fails, and otherwise answers as a decode
// followed by Get does — presence and value, nil versus empty included —
// and finds every decoded key with its value.
func FuzzSearchPageMatchesDecode(f *testing.F) {
	v1 := New(4)
	v1.SetBound([]byte("m"))
	v1.Put("a", []byte("1"))
	v1.Put("b", nil)
	for _, page := range append(v2Seeds(), v1.AppendFormat(nil, format.V1)) {
		f.Add(page, "user:0002")
		f.Add(page, "")
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		b, _, derr := DecodeBinary(data)
		v, ok, ver, serr := SearchPage(data, key)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("DecodeBinary error %v, SearchPage error %v", derr, serr)
		}
		if derr != nil {
			return
		}
		if ver != b.DecodedFormat() {
			t.Fatalf("SearchPage reports v%d, the page decodes as v%d", ver, b.DecodedFormat())
		}
		want, wantOK := b.Get(key)
		if ok != wantOK || !bytes.Equal(v, want) || (v == nil) != (want == nil) {
			t.Fatalf("SearchPage(%q) = %q (nil %v), %v; decode then Get = %q (nil %v), %v",
				key, v, v == nil, ok, want, want == nil, wantOK)
		}
		for i := 0; i < b.Len(); i++ {
			r := b.At(i)
			v, ok, _, err := SearchPage(data, r.Key)
			if err != nil || !ok || !bytes.Equal(v, r.Value) || (v == nil) != (r.Value == nil) {
				t.Fatalf("SearchPage(%q) = %q, %v, %v; the page holds %q", r.Key, v, ok, err, r.Value)
			}
		}
	})
}
