// Package mmapfile maps files read-only into memory where the platform
// supports it, with a plain read fallback elsewhere. It serves the two
// zero-copy load paths: a memory-mapped .hotm artifact lets the flat
// inference engine serve straight out of the page cache — load time
// independent of model size, one physical copy shared across processes —
// and a mapped dataset file (simnet.LoadFile) lets the KPI tensor K be
// read in place instead of copied to the heap. Either way the mapping
// stays read-only, and a file must be replaced by rename while a process
// maps it, never rewritten in place.
package mmapfile

import (
	"fmt"
	"os"
)

// File is one opened file's contents, either memory-mapped or read into
// the heap. Data is read-only either way: writing to a mapped region
// faults, and callers that alias Data (the zero-copy decoders) must keep
// the File alive as long as the aliases are in use.
type File struct {
	data   []byte
	mapped bool
}

// Data returns the file contents. The slice is invalid after Close when
// Mapped reports true.
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
