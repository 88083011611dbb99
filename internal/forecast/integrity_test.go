package forecast

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/faultfs"
)

// encodeTestArtifact fits a small forest and returns its encoded (v4)
// envelope, shared shape for the integrity tests.
func encodeTestArtifact(t *testing.T) []byte {
	t.Helper()
	c := testContext(t, 80, 6, 67)
	c.ForestTrees = 3
	tr, err := NewRFR().Fit(c, BeHot, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVerifyEnvelope: a freshly encoded envelope verifies, the whole-
// envelope sum is stable and matches EnvelopeChecksum, and any single
// corruption — header, meta section, payload section, truncation —
// fails the gate with an error naming the damaged region.
func TestVerifyEnvelope(t *testing.T) {
	data := encodeTestArtifact(t)
	sum, err := VerifyEnvelope(data)
	if err != nil {
		t.Fatalf("fresh envelope fails verification: %v", err)
	}
	if sum == (binenc.Sum{}) {
		t.Fatal("envelope verified to the zero sum")
	}
	if got := EnvelopeChecksum(data); got != sum {
		t.Fatalf("EnvelopeChecksum %s != VerifyEnvelope %s", got, sum)
	}

	corrupt := func(mutate func([]byte)) error {
		mut := append([]byte(nil), data...)
		mutate(mut)
		_, err := VerifyEnvelope(mut)
		return err
	}
	if err := corrupt(func(b []byte) { b[envHeaderSize+2] ^= 0x01 }); err == nil ||
		!strings.Contains(err.Error(), "meta section") {
		t.Fatalf("meta bit-flip: %v", err)
	}
	if err := corrupt(func(b []byte) { b[len(b)-5] ^= 0x80 }); err == nil ||
		!strings.Contains(err.Error(), "payload section") {
		t.Fatalf("payload bit-flip: %v", err)
	}
	if err := corrupt(func(b []byte) { b[envOffPayload] ^= 0xff }); err == nil {
		t.Fatal("doctored payload offset verified")
	}
	if _, err := VerifyEnvelope(data[:len(data)/2]); err == nil {
		t.Fatal("truncated envelope verified")
	}
	if _, err := VerifyEnvelope(data[:20]); err == nil ||
		!strings.Contains(err.Error(), "header") {
		t.Fatalf("sub-header truncation: %v", err)
	}
	if _, err := VerifyEnvelope([]byte("nope")); err == nil {
		t.Fatal("bad magic verified")
	}
}

// TestDecodeModelRejectsBitFlip: the untrusted decode enforces the v4
// sums on top of the structural scan, so a value-level bit flip that
// preserves structure still fails.
func TestDecodeModelRejectsBitFlip(t *testing.T) {
	data := encodeTestArtifact(t)
	if _, err := DecodeModel(data); err != nil {
		t.Fatalf("clean envelope rejected: %v", err)
	}
	// Flip one bit of a leaf probability deep in the payload: structurally
	// invisible, value-level corruption.
	mut := append([]byte(nil), data...)
	mut[len(mut)-10] ^= 0x01
	if _, err := DecodeModel(mut); err == nil {
		t.Fatal("bit-flipped envelope decoded cleanly")
	}
}

// TestLoadModelFileRejectsCorruption: the mmap load path's checksum gate
// catches on-disk corruption of a published file — bit flips anywhere
// and truncation — before any section is aliased.
func TestLoadModelFileRejectsCorruption(t *testing.T) {
	data := encodeTestArtifact(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.hotm")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(good); err != nil {
		t.Fatalf("clean file rejected: %v", err)
	}
	flipped := filepath.Join(dir, "flipped.hotm")
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.BitFlipFile(flipped, int64(len(data)/3), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(flipped); err == nil {
		t.Fatal("bit-flipped file loaded cleanly")
	}
	torn := filepath.Join(dir, "torn.hotm")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(torn); err == nil {
		t.Fatal("torn file loaded cleanly")
	}
	empty := filepath.Join(dir, "empty.hotm")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(empty); err == nil {
		t.Fatal("empty file loaded cleanly")
	}
}

// TestLoadModelFileFS: the injectable-filesystem load applies the same
// gate to reads served through a fault injector — clean reads load, a
// bit-flipping filesystem fails the checksum, an erroring one surfaces
// its error.
func TestLoadModelFileFS(t *testing.T) {
	data := encodeTestArtifact(t)
	path := filepath.Join(t.TempDir(), "m.hotm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFileFS(nil, path); err != nil {
		t.Fatalf("nil FS (mmap path): %v", err)
	}
	if _, err := LoadModelFileFS(faultfs.New(faultfs.OS, 1), path); err != nil {
		t.Fatalf("clean injector: %v", err)
	}
	flip := faultfs.New(faultfs.OS, 99, faultfs.Rule{Op: faultfs.OpRead, Mode: faultfs.ModeBitFlip})
	if _, err := LoadModelFileFS(flip, path); err == nil {
		t.Fatal("bit-flipping FS loaded cleanly")
	}
	if flip.Fired() == 0 {
		t.Fatal("injector never fired")
	}
	fail := faultfs.New(faultfs.OS, 1, faultfs.Rule{Op: faultfs.OpRead, Mode: faultfs.ModeErr})
	if _, err := LoadModelFileFS(fail, path); err == nil {
		t.Fatal("erroring FS loaded cleanly")
	}
}
