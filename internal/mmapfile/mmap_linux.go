//go:build linux

package mmapfile

import (
	"fmt"
	"os"
	"syscall"
)

// Open maps path read-only. Empty files are a clean error (a zero-length
// mmap is EINVAL, and no caller has a use for one); any other mmap
// failure degrades to a heap read, so callers never need a platform
// switch.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("mmapfile: %s is empty", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: %s is %d bytes, beyond this platform's address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return readFallback(path)
	}
	return &File{data: data, mapped: true}, nil
}

// Alloc returns size zeroed, writable bytes in an anonymous private
// mapping, outside the Go heap: the collector neither scans nor paces on
// them. The mapping is advised for transparent huge pages, so filling it
// takes one fault per 2 MiB instead of one per 4 KiB page where the
// kernel honours the advice. A zero size or any mmap failure degrades to
// a heap allocation, as Open degrades to a heap read.
func Alloc(size int) *File {
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return heapAlloc(size)
	}
	// Advice only: a kernel without huge pages leaves the mapping as is.
	_ = syscall.Madvise(data, syscall.MADV_HUGEPAGE)
	return &File{data: data, mapped: true}
}

// Close unmaps the file or allocation. Idempotent; a nil receiver or
// heap-backed File is a no-op (heap data stays valid).
func (f *File) Close() error {
	if f == nil || !f.mapped || f.data == nil {
		return nil
	}
	data := f.data
	f.data = nil
	f.mapped = false
	return syscall.Munmap(data)
}
