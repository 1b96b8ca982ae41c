package bucket

import (
	"bytes"
	"math/rand"
	"testing"

	"triehash/internal/format"
)

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
	empty := New(4)
	f.Add(empty.AppendFormat(nil, format.V2))

	b := New(8)
	b.SetBound([]byte("user:9999"))
	for _, k := range []string{"user:0001", "user:0002", "user:02", "zz"} {
		b.Put(k, []byte("value-"+k))
	}
	b.Put("user:0003", nil) // nil value: the empty/nil distinction must survive
	enc := b.AppendFormat(nil, format.V2)
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	corrupt := append([]byte(nil), enc...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)

	future := append([]byte(nil), enc...)
	future[4] = 9 // unknown future version: typed error, no panic
	f.Add(future)

	// Long keys that share all but their last bytes: the expanded keys
	// outgrow the page, the case the key arena must size for.
	f.Add(sharedKeyBucket(rand.New(rand.NewSource(1))).AppendFormat(nil, format.V2))

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
