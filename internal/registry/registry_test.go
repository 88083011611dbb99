package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/forecast"
	"repro/internal/score"
	"repro/internal/simnet"
)

// testContext builds a tiny forecasting context for training artifacts.
func testContext(t testing.TB, sectors, weeks int, seed uint64) *forecast.Context {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Sectors = sectors
	cfg.Weeks = weeks
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.SelectSectors(score.FilterSectors(ds.K, 0.5))
	set := score.Compute(sub.K, score.DefaultWeighting())
	ctx, err := forecast.NewContext(sub.K, sub.Grid.Calendar(), set, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// fitAt trains the Average baseline at forecast day t (h=3, w=7): cheap,
// deterministic, and each t yields a distinct cutoff so successive
// publishes are distinguishable versions.
func fitAt(t testing.TB, c *forecast.Context, day int) forecast.Trained {
	t.Helper()
	tr, err := (forecast.AverageModel{}).Fit(c, forecast.BeHot, day, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func openTest(t *testing.T, dir string) *Registry {
	t.Helper()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPublishLatestGetList: the basic lifecycle — publish three versions
// across two tasks, observe ordered histories, latest/by-id resolution and
// deterministic listing.
func TestPublishLatestGetList(t *testing.T) {
	c := testContext(t, 80, 8, 11)
	dir := t.TempDir()
	r := openTest(t, dir)

	if tasks := r.List(); len(tasks) != 0 {
		t.Fatalf("fresh registry lists %v", tasks)
	}
	if _, ok := r.Latest(TaskKey{Model: "Average", H: 3, W: 7}); ok {
		t.Fatal("latest on empty registry")
	}

	v1, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Publish(fitAt(t, c, 31))
	if err != nil {
		t.Fatal(err)
	}
	trend, err := (forecast.TrendModel{}).Fit(c, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := r.Publish(trend)
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != 1 || v2.ID != 2 || v3.ID != 3 {
		t.Fatalf("version IDs = %d, %d, %d", v1.ID, v2.ID, v3.ID)
	}
	if v1.Cutoff != 27 || v2.Cutoff != 28 {
		t.Fatalf("cutoffs = %d, %d", v1.Cutoff, v2.Cutoff)
	}
	if v1.Fingerprint == "" || len(v1.Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q", v1.Fingerprint)
	}

	avgKey := TaskKey{Model: "Average", Target: int(forecast.BeHot), H: 3, W: 7}
	latest, ok := r.Latest(avgKey)
	if !ok || latest.ID != v2.ID {
		t.Fatalf("latest Average = %v, %v", latest, ok)
	}
	if got, ok := r.Get(avgKey, v1.ID); !ok || got.File != v1.File {
		t.Fatalf("get v1 = %v, %v", got, ok)
	}
	if _, ok := r.Get(avgKey, 99); ok {
		t.Fatal("get of unknown version succeeded")
	}

	tasks := r.List()
	if len(tasks) != 2 {
		t.Fatalf("tasks = %v", tasks)
	}
	if tasks[0].Key.Model != "Average" || len(tasks[0].Versions) != 2 ||
		tasks[1].Key.Model != "Trend" || len(tasks[1].Versions) != 1 {
		t.Fatalf("listing shape wrong: %+v", tasks)
	}

	// A second handle on the same directory sees everything from disk.
	r2 := openTest(t, dir)
	if latest, ok := r2.Latest(avgKey); !ok || latest.ID != v2.ID {
		t.Fatalf("reopened latest = %v, %v", latest, ok)
	}
	tr, v, err := r2.LoadLatest(avgKey)
	if err != nil || v.ID != v2.ID {
		t.Fatalf("reopened load latest: %v, %v", v, err)
	}
	want, err := fitAt(t, c, 31).Predict(c, 31, 7)
	if err != nil {
		t.Fatal(err)
	}
	have, err := tr.Predict(c, 31, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("sector %d differs through the registry round trip", i)
		}
	}
}

// TestLoadCachesSingleFlight: concurrent loads of one version share one
// decode and later loads hit the cache.
func TestLoadCachesSingleFlight(t *testing.T) {
	c := testContext(t, 80, 8, 12)
	r := openTest(t, t.TempDir())
	v, err := r.Publish(fitAt(t, c, 30))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	arts := make([]forecast.Trained, 8)
	for i := range arts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := r.Load(v)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(arts); i++ {
		if arts[i] != arts[0] {
			t.Fatal("concurrent loads produced distinct artifacts (cache not shared)")
		}
	}
	st := r.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single flight)", st.Misses)
	}
}

// TestRefreshPicksUpForeignPublish: a serving handle polls Refresh and sees
// versions published through a different handle (the cross-process case).
func TestRefreshPicksUpForeignPublish(t *testing.T) {
	c := testContext(t, 80, 8, 13)
	dir := t.TempDir()
	writer := openTest(t, dir)
	reader := openTest(t, dir)
	key := TaskKey{Model: "Average", Target: int(forecast.BeHot), H: 3, W: 7}

	if changed, err := reader.Refresh(); err != nil || changed {
		t.Fatalf("refresh on idle registry = %v, %v", changed, err)
	}
	gen := reader.Generation()
	if _, err := writer.Publish(fitAt(t, c, 30)); err != nil {
		t.Fatal(err)
	}
	changed, err := reader.Refresh()
	if err != nil || !changed {
		t.Fatalf("refresh after publish = %v, %v", changed, err)
	}
	if reader.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", reader.Generation(), gen+1)
	}
	if latest, ok := reader.Latest(key); !ok || latest.ID != 1 {
		t.Fatalf("reader latest = %v, %v", latest, ok)
	}
	if changed, err := reader.Refresh(); err != nil || changed {
		t.Fatalf("second refresh = %v, %v (nothing new)", changed, err)
	}
}

// TestPrune keeps the newest versions, removes the files of dropped ones,
// and refuses keepN < 1.
func TestPrune(t *testing.T) {
	c := testContext(t, 80, 8, 14)
	dir := t.TempDir()
	r := openTest(t, dir)
	var vs []Version
	for day := 30; day < 34; day++ {
		v, err := r.Publish(fitAt(t, c, day))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	if _, err := r.Prune(0); err == nil {
		t.Fatal("keepN=0 accepted")
	}
	dropped, err := r.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 || dropped[0].ID != vs[0].ID || dropped[1].ID != vs[1].ID {
		t.Fatalf("dropped = %v", dropped)
	}
	for _, v := range dropped {
		if _, err := os.Stat(filepath.Join(dir, v.File)); !os.IsNotExist(err) {
			t.Fatalf("pruned file %s still present (err=%v)", v.File, err)
		}
	}
	key := TaskKey{Model: "Average", Target: int(forecast.BeHot), H: 3, W: 7}
	if latest, ok := r.Latest(key); !ok || latest.ID != vs[3].ID {
		t.Fatalf("latest after prune = %v, %v", latest, ok)
	}
	if _, _, err := openTest(t, dir).LoadLatest(key); err != nil {
		t.Fatalf("latest unreadable after prune: %v", err)
	}
	if again, err := r.Prune(2); err != nil || again != nil {
		t.Fatalf("idempotent prune = %v, %v", again, err)
	}
}

// TestPublishCrashSafety: a publish aborted at any durability-critical
// stage — torn temp files and all — must leave the previous latest version
// fully readable, both through the live handle and a fresh Open of the
// directory.
func TestPublishCrashSafety(t *testing.T) {
	c := testContext(t, 80, 8, 15)
	key := TaskKey{Model: "Average", Target: int(forecast.BeHot), H: 3, W: 7}
	stages := []string{
		"artifact-write", "artifact-sync", "artifact-rename",
		"manifest-write", "manifest-sync", "manifest-rename",
	}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			r := openTest(t, dir)
			v1, err := r.Publish(fitAt(t, c, 30))
			if err != nil {
				t.Fatal(err)
			}
			r.failpoint = func(s string) error {
				if s == stage {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			if _, err := r.Publish(fitAt(t, c, 31)); err == nil ||
				!strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("publish survived injected crash (err=%v)", err)
			}
			r.failpoint = nil

			// The live handle still serves v1.
			if latest, ok := r.Latest(key); !ok || latest.ID != v1.ID {
				t.Fatalf("latest after torn publish = %v, %v", latest, ok)
			}
			if _, _, err := r.LoadLatest(key); err != nil {
				t.Fatalf("latest unreadable after torn publish: %v", err)
			}
			// A fresh Open of the torn directory sees only v1 and loads it.
			r2 := openTest(t, dir)
			latest, ok := r2.Latest(key)
			if !ok || latest.ID != v1.ID {
				t.Fatalf("reopened latest = %v, %v", latest, ok)
			}
			if _, _, err := r2.LoadLatest(key); err != nil {
				t.Fatalf("reopened latest unreadable: %v", err)
			}
			// And the next publish succeeds, reusing the torn version slot.
			v2, err := r2.Publish(fitAt(t, c, 31))
			if err != nil {
				t.Fatalf("publish after recovery: %v", err)
			}
			if v2.ID != v1.ID+1 {
				t.Fatalf("recovered publish got ID %d, want %d", v2.ID, v1.ID+1)
			}
			if _, _, err := r2.LoadLatest(key); err != nil {
				t.Fatalf("recovered latest unreadable: %v", err)
			}
		})
	}
}

// TestOpenRejectsCorruptManifest: a manifest that is not valid JSON (e.g.
// hand-truncated) fails Open loudly instead of serving an empty registry
// over live artifacts.
func TestOpenRejectsCorruptManifest(t *testing.T) {
	c := testContext(t, 80, 8, 16)
	dir := t.TempDir()
	r := openTest(t, dir)
	if _, err := r.Publish(fitAt(t, c, 30)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(r.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.ManifestPath(), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated manifest accepted (err=%v)", err)
	}
}

// TestLoadRejectsManifestMismatch: a version whose on-disk artifact no
// longer matches the manifest metadata (swapped file) fails loudly. The
// swapped file is internally consistent — its section sums verify — so the
// manifest-stamped whole-envelope checksum is what catches the swap, and
// the failure quarantines the version.
func TestLoadRejectsManifestMismatch(t *testing.T) {
	c := testContext(t, 80, 8, 17)
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
	// Swap v2's file for v1's bytes: the content no longer matches the
	// manifest's stamped checksum (nor its cutoff).
	data, err := os.ReadFile(filepath.Join(dir, v1.File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, v2.File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(v2); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("swapped artifact accepted (err=%v)", err)
	}
	if !r.IsQuarantined(v2.ID) {
		t.Fatal("swapped artifact not quarantined")
	}
}

// TestConcurrentPublishAndRead: publishes racing List/Latest/Load stay
// race-clean (run under -race) and readers always observe a consistent
// manifest snapshot.
func TestConcurrentPublishAndRead(t *testing.T) {
	c := testContext(t, 80, 8, 18)
	r := openTest(t, t.TempDir())
	key := TaskKey{Model: "Average", Target: int(forecast.BeHot), H: 3, W: 7}
	if _, err := r.Publish(fitAt(t, c, 30)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok := r.Latest(key); ok {
					if _, err := r.Load(v); err != nil {
						t.Error(err)
						return
					}
				}
				r.List()
			}
		}()
	}
	for day := 31; day < 36; day++ {
		if _, err := r.Publish(fitAt(t, c, day)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if v, ok := r.Latest(key); !ok || v.ID != 6 {
		t.Fatalf("latest after publish storm = %v, %v", v, ok)
	}
}
