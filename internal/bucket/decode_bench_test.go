package bucket

import (
	"fmt"
	"testing"

	"triehash/internal/format"
)

func benchPage(v format.Version, n int) []byte {
	b := New(64)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user:%04d", i*7)
		b.Put(k, []byte(fmt.Sprintf("value-%s-%04d", k, i)))
	}
	b.SetBound([]byte("user:0000"))
	return b.AppendFormat(nil, v)
}

func BenchmarkDecodeV1(b *testing.B) {
	page := benchPage(format.V1, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeV2(b *testing.B) {
	page := benchPage(format.V2, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPageV2 and BenchmarkDecodeGetV2 price a point lookup in
// a 14-record page both ways: the in-place search, and the decode into a
// bucket followed by its binary search.
func BenchmarkSearchPageV2(b *testing.B) {
	page := benchPage(format.V2, 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := SearchPage(page, "user:0049"); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkDecodeGetV2(b *testing.B) {
	page := benchPage(format.V2, 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, _, err := DecodeBinary(page)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := d.Get("user:0049"); !ok {
			b.Fatal("key missing")
		}
	}
}
