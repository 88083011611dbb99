//go:build !linux

package mmapfile

// Open reads path into the heap on platforms without the mmap fast
// path. The File behaves identically except Mapped reports false.
func Open(path string) (*File, error) { return readFallback(path) }

// Alloc allocates size zeroed bytes on the heap on platforms without
// the mmap fast path. The File behaves identically except Mapped reports
// false.
func Alloc(size int) *File { return heapAlloc(size) }

// Close is a no-op for heap-backed files; the data stays valid.
func (f *File) Close() error { return nil }
