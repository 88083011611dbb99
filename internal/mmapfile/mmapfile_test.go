package mmapfile

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestOpenRejectsEmptyFile: a zero-length file is a clean error on every
// platform, never a 0-byte buffer a section reader would index past.
func TestOpenRejectsEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err == nil {
		f.Close()
		t.Fatal("Open on an empty file succeeded")
	}
	if !strings.Contains(err.Error(), "empty") {
		t.Fatalf("Open error %q does not name the cause", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); !os.IsNotExist(err) {
		t.Fatalf("Open on a missing file = %v, want not-exist", err)
	}
}

// TestOpenSmallFile: files smaller than any envelope header still open
// fine — header validation is the caller's job, mmapfile only refuses
// zero bytes.
func TestOpenSmallFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny")
	if err := os.WriteFile(path, []byte{0x42}, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data()) != 1 || f.Data()[0] != 0x42 {
		t.Fatalf("Data = %v", f.Data())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseSafety: Close is safe on a nil File (the failed-open path),
// and idempotent on a real one.
func TestCloseSafety(t *testing.T) {
	var nilFile *File
	if err := nilFile.Close(); err != nil {
		t.Fatalf("Close on nil File = %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestAlloc: an allocation is zeroed, writable and 8-byte aligned, mapped
// on linux, and Close is idempotent; a zero size falls back to an empty
// heap allocation.
func TestAlloc(t *testing.T) {
	f := Alloc(3 << 20)
	b := f.Data()
	if len(b) != 3<<20 || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		t.Fatalf("Alloc gave %d bytes at %p", len(b), unsafe.SliceData(b))
	}
	if f.Mapped() != (runtime.GOOS == "linux") {
		t.Errorf("Mapped = %v on %s", f.Mapped(), runtime.GOOS)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %d, want 0", i, v)
		}
	}
	b[0], b[len(b)-1] = 1, 2
	if b[0] != 1 || b[len(b)-1] != 2 {
		t.Fatal("writes to the allocation did not stick")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if z := Alloc(0); len(z.Data()) != 0 || z.Mapped() {
		t.Fatalf("Alloc(0) = %d bytes, mapped %v", len(z.Data()), z.Mapped())
	}
}
