// Package binenc provides the little-endian binary codec primitives behind
// the repository's trained-model artifacts (internal/mltree codecs and the
// forecast artifact envelope). Encoding appends to a byte slice; decoding
// goes through a Reader that records the first error and refuses to
// allocate more than the buffer could possibly hold, so corrupt or
// truncated artifacts fail with an error instead of a panic or an
// attacker-sized allocation.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// nativeLittle reports whether this host's byte order is little-endian —
// the artifact wire order. When it is (every platform this repo targets),
// the zero-copy readers below can alias raw sections instead of copying.
var nativeLittle = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// NativeLittle reports whether this host matches the artifact wire
// order, for callers that alias raw sections with their own layouts.
func NativeLittle() bool { return nativeLittle }

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI32 appends an int32 as its two's-complement uint32.
func AppendI32(b []byte, v int32) []byte { return AppendU32(b, uint32(v)) }

// AppendF64 appends the IEEE-754 bits of v, so round-trips are bit-exact
// (including NaN payloads and signed zeros).
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendString appends a u32 length prefix and the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendF64s appends a u32 count prefix and the values' IEEE-754 bits.
// A nil slice encodes as count 0 and decodes as nil.
func AppendF64s(b []byte, vs []float64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendAlign8 zero-pads b to the next multiple of 8 bytes. Offsets are
// measured from the buffer's start, so when the buffer is a whole
// artifact file (offset 0 = file byte 0, and an mmap base is page
// aligned) the section that follows is 8-byte aligned in memory.
func AppendAlign8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// AppendU64sRaw appends a u32 count, alignment padding to the next
// 8-byte boundary, and the values as raw little-endian words — the
// layout Reader.U64sZeroCopy reads back without copying.
func AppendU64sRaw(b []byte, vs []uint64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	b = AppendAlign8(b)
	if nativeLittle && len(vs) > 0 {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*8)...)
	}
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}

// AppendF64sRaw is AppendU64sRaw over IEEE-754 bits (bit-exact,
// including NaN payloads and signed zeros).
func AppendF64sRaw(b []byte, vs []float64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	b = AppendAlign8(b)
	if nativeLittle && len(vs) > 0 {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*8)...)
	}
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendI32sRaw appends a u32 count, padding to an 8-byte boundary (so
// every raw section starts 8-aligned regardless of element size), and
// the values as raw little-endian words.
func AppendI32sRaw(b []byte, vs []int32) []byte {
	b = AppendU32(b, uint32(len(vs)))
	b = AppendAlign8(b)
	if nativeLittle && len(vs) > 0 {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*4)...)
	}
	for _, v := range vs {
		b = AppendI32(b, v)
	}
	return b
}

// Reader decodes a buffer written with the Append helpers. The first
// failure (short buffer, oversized count) sticks: every later read returns
// a zero value and Err reports the original problem.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a buffer for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the buffer was consumed exactly: it returns the sticky
// error if any, and otherwise an error when trailing bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("binenc: %d trailing bytes after decode", n)
	}
	return nil
}

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: "+format, args...)
	}
}

// take returns the next n bytes, or nil after recording a short-buffer
// error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Skip discards the next n bytes.
func (r *Reader) Skip(n int) { r.take(n) }

// Align8 discards the padding AppendAlign8 wrote: it advances the read
// offset to the next multiple of 8 from the buffer's start.
func (r *Reader) Align8() {
	if pad := (8 - r.off%8) % 8; pad != 0 {
		r.take(pad)
	}
}

// Raw returns the next n bytes of the buffer without copying (aliasing
// the underlying array), validated against the remaining length. The
// caller must treat the result as read-only.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// rawSection reads the count prefix and aligned payload of an
// Append*sRaw section: n elements of elem bytes each, 8-aligned from
// the buffer start. Returns nil (with the error recorded, if any) for
// an empty or unreadable section.
func (r *Reader) rawSection(elem int) (n int, b []byte) {
	n = int(r.U32())
	r.Align8()
	if n == 0 || r.err != nil {
		return 0, nil
	}
	if n > r.Remaining()/elem {
		r.fail("raw section of %d x %d bytes exceeds %d remaining", n, elem, r.Remaining())
		return 0, nil
	}
	return n, r.take(n * elem)
}

// U64sZeroCopy reads a section written by AppendU64sRaw. On a
// little-endian host with the payload 8-byte aligned in memory (an
// aligned file read or mmap) the returned slice aliases the buffer —
// no copy, no allocation; otherwise it is copied element-wise. Either
// way the caller must treat the result as read-only, and an aliased
// result is only valid while the buffer stays mapped.
func (r *Reader) U64sZeroCopy() []uint64 {
	n, b := r.rawSection(8)
	if b == nil {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); nativeLittle && uintptr(p)%8 == 0 {
		return unsafe.Slice((*uint64)(p), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// F64sZeroCopy is U64sZeroCopy over IEEE-754 bits.
func (r *Reader) F64sZeroCopy() []float64 {
	n, b := r.rawSection(8)
	if b == nil {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); nativeLittle && uintptr(p)%8 == 0 {
		return unsafe.Slice((*float64)(p), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// I32sZeroCopy reads a section written by AppendI32sRaw, aliasing the
// buffer when the host is little-endian and the payload 4-byte aligned.
func (r *Reader) I32sZeroCopy() []int32 {
	n, b := r.rawSection(4)
	if b == nil {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); nativeLittle && uintptr(p)%4 == 0 {
		return unsafe.Slice((*int32)(p), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 reads a float64 bit-exactly.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a u32-length-prefixed string. The length is validated
// against the remaining buffer before any allocation.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err == nil && n > r.Remaining() {
		r.fail("string length %d exceeds %d remaining bytes", n, r.Remaining())
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a u32-count-prefixed float64 slice (count 0 decodes as nil).
// The count is validated against the remaining buffer before allocating.
func (r *Reader) F64s() []float64 {
	n := int(r.U32())
	if n == 0 || r.err != nil {
		return nil
	}
	if n*8 > r.Remaining() {
		r.fail("f64 count %d exceeds %d remaining bytes", n, r.Remaining())
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}
