// Package mmapfile maps memory outside the Go heap where the platform
// supports it, with a plain heap fallback elsewhere. Open maps a file
// read-only; it serves the two zero-copy load paths: a memory-mapped
// .hotm artifact lets the flat inference engine serve straight out of
// the page cache — load time independent of model size, one physical
// copy shared across processes — and a mapped dataset file
// (simnet.LoadFile) lets the KPI tensor K be read in place instead of
// copied to the heap. A file must be replaced by rename while a process
// maps it, never rewritten in place. Alloc maps writable anonymous
// memory, where the garbage collector neither scans the bytes nor sizes
// the heap goal by them. It holds a generated K (simnet.Generate), the
// largest object in the process, and the tree grower's chain-mode
// histograms (mltree), an arena of a few buffers of up to tens of MB that
// lives for one fit and is unmapped when the fit returns. On linux Alloc
// advises its mappings for transparent huge pages: a fit that faulted its
// fresh histograms in 4 KiB pages ran 10-25% slower than one on 2 MiB
// pages.
package mmapfile

import (
	"fmt"
	"os"
	"unsafe"
)

// File is one mapping's contents, or its heap stand-in. Open's Data is
// read-only either way: writing to a mapped file region faults. Alloc's
// Data is writable. Callers that alias Data (the zero-copy decoders, a
// generated K) must keep the File open as long as the aliases are in
// use.
type File struct {
	data   []byte
	mapped bool
}

// Data returns the file contents or the allocation. The slice is invalid
// after Close when Mapped reports true.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether Data is a memory mapping (true) or a heap copy
// (false). Heap copies never invalidate; mappings die with Close.
func (f *File) Mapped() bool { return f.mapped }

// readFallback loads the file into the heap — the non-mmap platforms'
// Open and the mmap-failure path. Zero-length files are a clean error on
// every platform: no caller has a use for an empty buffer, and returning
// one would push the failure into whatever section reader indexes past
// it (historically, a 0-byte "mapping" that crashed the envelope decode).
func readFallback(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("mmapfile: %s is empty", path)
	}
	return &File{data: data}, nil
}

// heapAlloc is Alloc's heap fallback: size zeroed bytes, 8-byte aligned
// like a mapping, so a caller may alias them as 64-bit words.
func heapAlloc(size int) *File {
	words := make([]uint64, (size+7)/8)
	return &File{data: unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)}
}
