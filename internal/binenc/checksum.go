package binenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the artifact integrity primitive: a fast streaming content
// checksum stamped into every version-4 envelope (and the registry
// manifest) and verified before the unchecked flat kernels may run over a
// trusted (mmap) load. It is 128 bits wide because one 64-bit hash makes
// silent collisions merely unlikely, while two independent 64-bit folds of
// the same wide state make them implausible. It is built for throughput:
// the inner loop runs eight independent lanes, each consuming 16 bytes per
// step through a single widening multiply (wyhash-style mix: hi ^ lo of a
// 64x64→128 product), so one multiply covers 16 bytes and the eight
// latency chains overlap to saturate the multiplier port. The gate must
// cost a small fraction of a zero-copy artifact load
// (BenchmarkChecksumBytes tracks the pass against BenchmarkLoadModelMmap
// via forecast's BenchmarkVerifyEnvelope).
//
// This is corruption detection, not cryptography: an adversary who can
// write the file can also restamp the sums. The design only has to make
// accidental collisions — torn writes, truncation, bit rot — implausible,
// which 128 state bits and nonlinear word mixing deliver.

// Sum is a 128-bit content checksum: two independent 64-bit folds of the
// hashed lane state.
type Sum struct {
	Lo, Hi uint64
}

// String renders the sum as 32 hex digits (Lo then Hi), the manifest form.
func (s Sum) String() string { return fmt.Sprintf("%016x%016x", s.Lo, s.Hi) }

// ParseSum parses the 32-hex-digit form rendered by String.
func ParseSum(s string) (Sum, error) {
	var out Sum
	if len(s) != 32 {
		return Sum{}, fmt.Errorf("binenc: checksum %q is not 32 hex digits", s)
	}
	if _, err := fmt.Sscanf(s, "%016x%016x", &out.Lo, &out.Hi); err != nil {
		return Sum{}, fmt.Errorf("binenc: bad checksum %q: %w", s, err)
	}
	return out, nil
}

// FNV-1a 64-bit constants seed the lanes and run the byte-wise tail; the
// fold's second half uses an independent odd multiplier (the 64-bit
// golden ratio) so the two words of the Sum decorrelate.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x00000100000001b3
	goldenOdd   = 0x9e3779b97f4a7c15
)

// sumLaneKeys are the per-lane odd constants: each seeds its lane (scaled
// by the input length) and keys the second multiplicand of the lane's
// mix, so identical words landing in different lanes hash differently.
var sumLaneKeys = [8]uint64{
	0x9e3779b97f4a7c15, // 2^64 / golden ratio
	0xbf58476d1ce4e5b9, // splitmix64
	0x94d049bb133111eb, // splitmix64
	0xff51afd7ed558ccd, // murmur3 fmix
	0xc4ceb9fe1a85ec53, // murmur3 fmix
	0xc2b2ae3d27d4eb4f, // xxhash prime 2
	0x9e3779b185ebca87, // xxhash prime 1
	0x2545f4914f6cdd1d, // xorshift*
}

// mix16 folds one 16-byte chunk into a lane: a widening multiply of the
// state-xored first word by the key-xored second, high half xored into
// the low. The full 128-bit product matters — a low-64 multiply misses a
// top-bit flip whenever the other factor is even (probability 1/2), while
// hi^lo is sensitive to every input bit. Adding the previous state back
// keeps every earlier byte's influence alive even through the multiply's
// rare degenerate inputs (a zero factor requires a data word to exactly
// match the evolving state or the lane key, ~2^-64 per word).
func mix16(l, w0, w1, key uint64) uint64 {
	hi, lo := bits.Mul64(w0^l, w1^key)
	return (hi ^ lo) + l
}

// ChecksumBytes computes the streaming content checksum of p. It is
// deterministic across processes and platforms (words are read
// little-endian, the wire order) and length-extension-distinct: inputs of
// different lengths never share a lane state because the length seeds
// every lane.
func ChecksumBytes(p []byte) Sum {
	n := uint64(len(p))
	var l [8]uint64
	for i := range l {
		l[i] = (n+1)*sumLaneKeys[i] ^ fnvOffset64
	}
	for len(p) >= 128 {
		l[0] = mix16(l[0], binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), sumLaneKeys[0])
		l[1] = mix16(l[1], binary.LittleEndian.Uint64(p[16:24]), binary.LittleEndian.Uint64(p[24:32]), sumLaneKeys[1])
		l[2] = mix16(l[2], binary.LittleEndian.Uint64(p[32:40]), binary.LittleEndian.Uint64(p[40:48]), sumLaneKeys[2])
		l[3] = mix16(l[3], binary.LittleEndian.Uint64(p[48:56]), binary.LittleEndian.Uint64(p[56:64]), sumLaneKeys[3])
		l[4] = mix16(l[4], binary.LittleEndian.Uint64(p[64:72]), binary.LittleEndian.Uint64(p[72:80]), sumLaneKeys[4])
		l[5] = mix16(l[5], binary.LittleEndian.Uint64(p[80:88]), binary.LittleEndian.Uint64(p[88:96]), sumLaneKeys[5])
		l[6] = mix16(l[6], binary.LittleEndian.Uint64(p[96:104]), binary.LittleEndian.Uint64(p[104:112]), sumLaneKeys[6])
		l[7] = mix16(l[7], binary.LittleEndian.Uint64(p[112:120]), binary.LittleEndian.Uint64(p[120:128]), sumLaneKeys[7])
		p = p[128:]
	}
	for len(p) >= 16 {
		l[0] = mix16(l[0], binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), sumLaneKeys[0])
		p = p[16:]
	}
	// Sub-16-byte tail: byte-wise FNV-1a into lane 0.
	for _, b := range p {
		l[0] = (l[0] ^ uint64(b)) * fnvPrime64
	}
	// Two independent folds of the 512-bit lane state. Each fold is itself
	// an FNV chain over the lanes, so single-lane perturbations avalanche
	// through both halves.
	lo := uint64(fnvOffset64) ^ n
	hi := uint64(goldenOdd)
	for _, lane := range l {
		lo = (lo ^ lane) * fnvPrime64
		hi = (hi ^ bits.RotateLeft64(lane, 32)) * goldenOdd
	}
	// Final avalanche so low-bit differences reach the high bits.
	lo ^= lo >> 33
	lo *= goldenOdd
	lo ^= lo >> 29
	hi ^= hi >> 33
	hi *= fnvPrime64
	hi ^= hi >> 29
	return Sum{Lo: lo, Hi: hi}
}

// checksumChunk is the chunk size of ChecksumChunked. Small enough that
// one chunk verifies in a few microseconds, large enough that the
// per-chunk sums (16 bytes each) are a vanishing fraction of the input.
const checksumChunk = 64 << 10

// ChecksumChunked computes the chunked content checksum of p: the plain
// ChecksumBytes for inputs of at most one chunk, otherwise the checksum
// of the concatenated per-chunk checksums. The per-chunk sums are
// independent, so verification of a large artifact payload or mapped
// dataset section runs on up to GOMAXPROCS workers (the caller among
// them) at aggregate memory bandwidth — the single-threaded streaming
// pass would otherwise be the one O(bytes) step left in a zero-copy
// load. The result is deterministic: chunk boundaries are fixed and the
// fold order is chunk order, regardless of scheduling.
func ChecksumChunked(p []byte) Sum {
	n := len(p)
	if n <= checksumChunk {
		return ChecksumBytes(p)
	}
	chunks := (n + checksumChunk - 1) / checksumChunk
	sums := make([]byte, chunks*16)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= chunks {
				return
			}
			lo := i * checksumChunk
			PutSum(sums, i*16, ChecksumBytes(p[lo:min(lo+checksumChunk, n)]))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ChecksumBytes(sums)
}

// AppendSum appends the sum's two words little-endian (16 bytes).
func AppendSum(b []byte, s Sum) []byte {
	b = AppendU64(b, s.Lo)
	return AppendU64(b, s.Hi)
}

// PutSum writes the sum at b[off:off+16] (backpatching a reserved header
// slot).
func PutSum(b []byte, off int, s Sum) {
	binary.LittleEndian.PutUint64(b[off:], s.Lo)
	binary.LittleEndian.PutUint64(b[off+8:], s.Hi)
}

// ReadSum reads a sum written by AppendSum/PutSum.
func (r *Reader) ReadSum() Sum {
	lo := r.U64()
	hi := r.U64()
	return Sum{Lo: lo, Hi: hi}
}
