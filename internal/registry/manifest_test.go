package registry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsafeManifests are edits to a valid two-version manifest that each make
// it corrupt: a file name that escapes or is not a plain name inside the
// registry directory, a version ID that is non-positive or reused, or a
// next_id that Publish would turn into an existing version's file name.
var unsafeManifests = []struct {
	name string
	edit func(m *manifest)
}{
	{"parent escape", func(m *manifest) { m.Tasks[0].Versions[0].File = "../victim.txt" }},
	{"absolute path", func(m *manifest) { m.Tasks[0].Versions[0].File = "/tmp/victim.txt" }},
	{"subdirectory", func(m *manifest) { m.Tasks[0].Versions[0].File = "sub/v000001-average.hotm" }},
	{"empty file", func(m *manifest) { m.Tasks[0].Versions[0].File = "" }},
	{"dot", func(m *manifest) { m.Tasks[0].Versions[0].File = "." }},
	{"dot dot", func(m *manifest) { m.Tasks[0].Versions[0].File = ".." }},
	{"the manifest itself", func(m *manifest) { m.Tasks[0].Versions[0].File = manifestName }},
	{"zero ID", func(m *manifest) { m.Tasks[0].Versions[0].ID = 0 }},
	{"negative ID", func(m *manifest) { m.Tasks[0].Versions[0].ID = -3 }},
	{"duplicate ID", func(m *manifest) { m.Tasks[0].Versions[1].ID = m.Tasks[0].Versions[0].ID }},
	{"next_id at the largest ID", func(m *manifest) { m.NextID = 2 }},
	{"next_id below the largest ID", func(m *manifest) { m.NextID = 1 }},
}

// publishTwo publishes two Average versions (IDs 1 and 2) into dir and
// returns the live handle and the manifest it wrote.
func publishTwo(t testing.TB, dir string) (*Registry, *manifest) {
	t.Helper()
	c := testContext(t, 80, 8, 23)
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for day := 30; day < 32; day++ {
		if _, err := r.Publish(fitAt(t, c, day)); err != nil {
			t.Fatal(err)
		}
	}
	return r, r.cur.Load().m.clone()
}

func putManifest(t testing.TB, dir string, m *manifest) {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsUnsafeManifest: each unsafe edit fails Open as a corrupt
// manifest, and a live handle's Refresh keeps serving its last good
// snapshot.
func TestOpenRejectsUnsafeManifest(t *testing.T) {
	dir := t.TempDir()
	r, good := publishTwo(t, dir)
	key := good.Tasks[0].Key
	for _, tc := range unsafeManifests {
		t.Run(tc.name, func(t *testing.T) {
			m := good.clone()
			tc.edit(m)
			putManifest(t, dir, m)
			if _, err := Open(dir, -1); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
				t.Fatalf("unsafe manifest opened (err=%v)", err)
			}
			if changed, err := r.Refresh(); err == nil || changed {
				t.Fatalf("refresh accepted unsafe manifest: changed=%v err=%v", changed, err)
			}
			if latest, ok := r.Latest(key); !ok || latest.ID != 2 {
				t.Fatalf("latest after rejected refresh = %v, %v", latest, ok)
			}
		})
	}
	putManifest(t, dir, good)
	if _, err := Open(dir, -1); err != nil {
		t.Fatalf("rewritten good manifest rejected: %v", err)
	}
}

// TestPruneKeepsFilesOutsideRegistry: a manifest entry pointing outside
// the registry directory must never reach Prune's file removal.
func TestPruneKeepsFilesOutsideRegistry(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "reg")
	victim := filepath.Join(root, "victim.txt")
	if err := os.WriteFile(victim, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, m := publishTwo(t, dir)
	m.Tasks[0].Versions[0].File = "../victim.txt"
	putManifest(t, dir, m)
	_, _ = r.Refresh()
	if _, err := r.Prune(1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("prune removed a file outside the registry: %v", err)
	}
}

// FuzzManifest: whatever manifest.json holds, Open, List, Latest and
// VerifyAll must not panic, and an accepted manifest never names a file
// outside the registry directory.
func FuzzManifest(f *testing.F) {
	_, good := publishTwo(f, f.TempDir())
	seed, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, tc := range unsafeManifests {
		m := good.clone()
		tc.edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	empty, err := json.Marshal(&manifest{FormatVersion: formatVersion, NextID: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, -1)
		if err != nil {
			return
		}
		for _, task := range r.List() {
			r.Latest(task.Key)
			for _, v := range task.Versions {
				if p := filepath.Join(dir, v.File); filepath.Dir(p) != dir || v.File == manifestName {
					t.Fatalf("accepted manifest names %q, outside the registry's artifacts", v.File)
				}
			}
		}
		r.VerifyAll()
	})
}
