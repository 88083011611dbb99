package registry

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/forecast"
)

// TestPublishStampsChecksum: every publish stamps the artifact's
// whole-envelope checksum into the manifest entry, and the stamp matches an
// independent re-read of the file — the bond Load cross-checks later.
func TestPublishStampsChecksum(t *testing.T) {
	c := testContext(t, 80, 8, 21)
	dir := t.TempDir()
	r := openTest(t, dir)
	v, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Checksum) != 32 {
		t.Fatalf("manifest checksum = %q, want 32 hex digits", v.Checksum)
	}
	data, err := os.ReadFile(filepath.Join(dir, v.File))
	if err != nil {
		t.Fatal(err)
	}
	if got := forecast.EnvelopeChecksum(data).String(); got != v.Checksum {
		t.Fatalf("file checksum %s, manifest stamped %s", got, v.Checksum)
	}
	mdata, err := os.ReadFile(r.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdata), v.Checksum) {
		t.Fatal("stamped checksum not persisted in manifest.json")
	}
	for _, res := range r.VerifyAll() {
		if res.Err != nil {
			t.Fatalf("fresh publish fails fsck: %v", res.Err)
		}
	}
}

// TestQuarantineFallback: bit-rot in the latest artifact after publish must
// not take the task down — the load fails the checksum gate, the version is
// quarantined, and LoadLatest falls back to the previous version.
func TestQuarantineFallback(t *testing.T) {
	c := testContext(t, 80, 8, 22)
	dir := t.TempDir()
	r := openTest(t, dir)
	v1, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Publish(fitAt(t, c, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Storage-level bit rot in v2's payload, discovered at load time.
	if err := faultfs.BitFlipFile(filepath.Join(dir, v2.File), -3, 2); err != nil {
		t.Fatal(err)
	}
	key := KeyFor(fitAt(t, c, 31))
	tr, served, err := r.LoadLatest(key)
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if served.ID != v1.ID {
		t.Fatalf("served version %d, want fallback to %d", served.ID, v1.ID)
	}
	if tr.Cutoff() != v1.Cutoff {
		t.Fatalf("served cutoff %d, want %d", tr.Cutoff(), v1.Cutoff)
	}
	if !r.IsQuarantined(v2.ID) {
		t.Fatal("corrupt version not quarantined")
	}
	if reason := r.Quarantined()[v2.ID]; !strings.Contains(reason, "checksum") {
		t.Fatalf("quarantine reason %q does not name the checksum", reason)
	}
	if _, ok := r.Latest(key); !ok {
		t.Fatal("Latest lost the task after quarantining one version")
	}
}

// TestRetiredEnvelopeVersionQuarantined: an artifact whose envelope
// version word is rewritten to a retired version (3) is corrupt, not a
// format to fall back to. VerifyAll names the version and quarantines it,
// and LoadLatest on a fresh handle serves the previous version.
func TestRetiredEnvelopeVersionQuarantined(t *testing.T) {
	c := testContext(t, 80, 8, 25)
	dir := t.TempDir()
	r := openTest(t, dir)
	v1, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Publish(fitAt(t, c, 31))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, v2.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:], 3)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, res := range r.VerifyAll() {
		switch res.Version.ID {
		case v1.ID:
			if res.Err != nil {
				t.Fatalf("clean version %d fails fsck: %v", v1.ID, res.Err)
			}
		case v2.ID:
			if res.Err == nil || !strings.Contains(res.Err.Error(), "artifact version 3 unsupported") {
				t.Fatalf("version-3 envelope: fsck err=%v, want it to name version 3", res.Err)
			}
		}
	}
	if !r.IsQuarantined(v2.ID) {
		t.Fatal("fsck did not quarantine the version-3 envelope")
	}
	fresh := openTest(t, dir)
	_, served, err := fresh.LoadLatest(KeyFor(fitAt(t, c, 31)))
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if served.ID != v1.ID || !fresh.IsQuarantined(v2.ID) {
		t.Fatalf("served version %d (v2 quarantined: %v), want fallback to %d",
			served.ID, fresh.IsQuarantined(v2.ID), v1.ID)
	}
}

// TestVerifyAllRejectsMissingChecksum: every published entry carries a
// checksum, so a manifest entry without one is reported as corrupt rather
// than verified some weaker way.
func TestVerifyAllRejectsMissingChecksum(t *testing.T) {
	c := testContext(t, 80, 8, 26)
	dir := t.TempDir()
	v, err := openTest(t, dir).Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(mdata), v.Checksum, "", 1)
	if stripped == string(mdata) {
		t.Fatal("checksum not found in manifest.json")
	}
	if err := os.WriteFile(mpath, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir)
	res := r.VerifyAll()
	if len(res) != 1 || res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "no checksum") {
		t.Fatalf("checksum-less entry: %+v, want a \"no checksum\" error", res)
	}
	if _, err := r.Load(res[0].Version); err == nil || !strings.Contains(err.Error(), "no checksum") {
		t.Fatalf("checksum-less entry loaded (err=%v)", err)
	}
}

// TestLoadRejectsInjectedCorruption: a seeded bit-flip injected on the
// artifact read path — wherever in the envelope it lands — is caught before
// serving, and the version is quarantined. This is the PR-4 crash tests
// extended past the publish barrier: the file was durably published intact
// and corrupted afterwards.
func TestLoadRejectsInjectedCorruption(t *testing.T) {
	c := testContext(t, 80, 8, 23)
	dir := t.TempDir()
	// Publish through a clean handle; load through a faulty one.
	if _, err := openTest(t, dir).Publish(fitAt(t, c, 30)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []faultfs.Mode{faultfs.ModeBitFlip, faultfs.ModeTruncate} {
		for seed := int64(0); seed < 8; seed++ {
			inj := faultfs.New(faultfs.OS, seed, faultfs.Rule{
				Op: faultfs.OpRead, PathContains: ".hotm", Mode: mode,
			})
			r, err := OpenFS(dir, -1, inj)
			if err != nil {
				t.Fatal(err)
			}
			key := KeyFor(fitAt(t, c, 30))
			v, ok := r.Latest(key)
			if !ok {
				t.Fatal("published version missing")
			}
			if _, err := r.Load(v); err == nil {
				t.Fatalf("%s seed %d: corrupted artifact served", mode, seed)
			}
			if inj.Fired() == 0 {
				t.Fatalf("%s seed %d: fault never injected", mode, seed)
			}
			if !r.IsQuarantined(v.ID) {
				t.Fatalf("%s seed %d: corrupt version not quarantined", mode, seed)
			}
		}
	}
}

// TestOpenRetriesTransientManifestRead: transient I/O errors while reading
// the manifest (EIO from a flaky disk) are retried with backoff, so Open
// succeeds where a single-shot read would have failed.
func TestOpenRetriesTransientManifestRead(t *testing.T) {
	c := testContext(t, 80, 8, 24)
	dir := t.TempDir()
	if _, err := openTest(t, dir).Publish(fitAt(t, c, 30)); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.New(faultfs.OS, 1, faultfs.Rule{
		Op: faultfs.OpRead, PathContains: manifestName,
		Mode: faultfs.ModeErr, Err: syscall.EIO, Count: 2,
	})
	r, err := OpenFS(dir, -1, inj)
	if err != nil {
		t.Fatalf("open did not survive transient reads: %v", err)
	}
	if inj.Fired() != 2 {
		t.Fatalf("injected %d faults, want 2", inj.Fired())
	}
	if tasks := r.List(); len(tasks) != 1 {
		t.Fatalf("recovered registry lists %d tasks", len(tasks))
	}
}

// TestRefreshSurvivesTornManifest: a Refresh that reads a torn manifest
// (caught mid-replacement by a cross-process race or a truncating fault)
// reports the error but keeps the current snapshot serving; once the fault
// clears, the next Refresh picks the new manifest up.
func TestRefreshSurvivesTornManifest(t *testing.T) {
	c := testContext(t, 80, 8, 25)
	dir := t.TempDir()
	writer := openTest(t, dir)
	v1, err := writer.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.New(faultfs.OS, 1, faultfs.Rule{
		Op: faultfs.OpRead, PathContains: manifestName,
		Mode: faultfs.ModeTruncate, After: 1, Count: 1,
	})
	reader, err := OpenFS(dir, -1, inj)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := writer.Publish(fitAt(t, c, 31))
	if err != nil {
		t.Fatal(err)
	}
	gen := reader.Generation()
	if _, err := reader.Refresh(); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("torn manifest refresh err = %v, want corrupt", err)
	}
	key := KeyFor(fitAt(t, c, 30))
	if v, ok := reader.Latest(key); !ok || v.ID != v1.ID {
		t.Fatalf("torn refresh disturbed the serving snapshot (got %v, %v)", v, ok)
	}
	if reader.Generation() != gen {
		t.Fatal("failed refresh bumped the generation")
	}
	changed, err := reader.Refresh()
	if err != nil || !changed {
		t.Fatalf("recovery refresh = %v, %v", changed, err)
	}
	if v, ok := reader.Latest(key); !ok || v.ID != v2.ID {
		t.Fatalf("recovered refresh serves %v, want version %d", v, v2.ID)
	}
}

// TestVerifyAll: the registry fsck reports every version, flags exactly the
// corrupted ones, and quarantines them so serving immediately falls back.
func TestVerifyAll(t *testing.T) {
	c := testContext(t, 80, 8, 26)
	dir := t.TempDir()
	r := openTest(t, dir)
	v1, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Publish(fitAt(t, c, 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.BitFlipFile(filepath.Join(dir, v2.File), -1, 5); err != nil {
		t.Fatal(err)
	}
	results := r.VerifyAll()
	if len(results) != 2 {
		t.Fatalf("fsck covered %d versions, want 2", len(results))
	}
	for _, res := range results {
		switch res.Version.ID {
		case v1.ID:
			if res.Err != nil {
				t.Fatalf("intact version flagged: %v", res.Err)
			}
		case v2.ID:
			if res.Err == nil {
				t.Fatal("corrupt version passed fsck")
			}
		}
	}
	if !r.IsQuarantined(v2.ID) {
		t.Fatal("fsck did not quarantine the corrupt version")
	}
	if _, served, err := r.LoadLatest(KeyFor(fitAt(t, c, 30))); err != nil || served.ID != v1.ID {
		t.Fatalf("post-fsck serving = version %d, %v; want fallback to %d", served.ID, err, v1.ID)
	}
}
