package binenc

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU16(b, 512)
	b = AppendU32(b, 1<<31+3)
	b = AppendU64(b, 1<<63+9)
	b = AppendI32(b, -42)
	b = AppendF64(b, math.Pi)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendString(b, "percentiles")
	b = AppendString(b, "")
	b = AppendF64s(b, []float64{1.5, math.Inf(1), math.NaN()})
	b = AppendF64s(b, nil)

	r := NewReader(b)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 512 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32(); v != 1<<31+3 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<63+9 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I32(); v != -42 {
		t.Fatalf("I32 = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero not bit-exact: %v", v)
	}
	if v := r.String(); v != "percentiles" {
		t.Fatalf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty String = %q", v)
	}
	vs := r.F64s()
	if len(vs) != 3 || vs[0] != 1.5 || !math.IsInf(vs[1], 1) || !math.IsNaN(vs[2]) {
		t.Fatalf("F64s = %v", vs)
	}
	if vs := r.F64s(); vs != nil {
		t.Fatalf("nil F64s decoded as %v", vs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShortBufferSticks: every truncation of a valid buffer must produce an
// error, never a panic, and the first error must stick.
func TestShortBufferSticks(t *testing.T) {
	var b []byte
	b = AppendU32(b, 5)
	b = AppendString(b, "hello")
	b = AppendF64s(b, []float64{1, 2, 3})
	for cut := 0; cut < len(b); cut++ {
		r := NewReader(b[:cut])
		r.U32()
		_ = r.String()
		r.F64s()
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(b))
		}
		if err := r.Close(); err == nil {
			t.Fatalf("Close after truncation at %d returned nil", cut)
		}
	}
}

// TestOversizedCountsRejected: corrupt length prefixes must be rejected
// before allocation.
func TestOversizedCountsRejected(t *testing.T) {
	r := NewReader(AppendU32(nil, 1<<30))
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("oversized string length accepted (%q, %v)", s, r.Err())
	}
	r = NewReader(AppendU32(nil, 1<<30))
	if vs := r.F64s(); vs != nil || r.Err() == nil {
		t.Fatalf("oversized f64 count accepted (%v, %v)", vs, r.Err())
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	b := AppendU8(AppendU32(nil, 1), 9)
	r := NewReader(b)
	r.U32()
	err := r.Close()
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Close = %v, want trailing-bytes error", err)
	}
}
