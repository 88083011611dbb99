// Package registry is the versioned on-disk model store behind the
// train → publish → serve → reload workflow: operators retrain per-sector
// rankers as new days of KPI data arrive, publish each fit as a new
// version, and serving processes (cmd/hotserve) pick the fresh version up
// without a restart.
//
// A registry owns one directory containing:
//
//   - manifest.json — the index: every task (model, target, h, w) mapped to
//     its ordered version history, plus a global monotonically increasing
//     version counter;
//   - v<NNNNNN>-<model>.hotm — one artifact file per published version, in
//     the forecast package's versioned binary envelope.
//
// Durability model: an artifact is written to a temp file, fsynced and
// renamed into place before the manifest is rewritten the same way, so the
// manifest only ever references fully durable artifacts and a crash at any
// point leaves the previous manifest — and every version it names —
// intact. Leftover *.tmp files and orphan artifacts (published file, crash
// before the manifest rename) are ignored: the manifest is the sole source
// of truth.
//
// Concurrency model: one process may publish and many may read. Readers
// work from an immutable manifest snapshot behind an atomic pointer, so
// List/Latest/Load never block behind a publish; decoded artifacts are
// shared through a single-flight byte-budgeted cache (internal/bytelru)
// keyed by version, so concurrent requests for one version decode it once. A reader in
// another process calls Refresh (cmd/hotserve polls the manifest mtime or
// reloads on demand) to pick up published versions.
package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binenc"
	"repro/internal/bytelru"
	"repro/internal/faultfs"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/retry"
)

// manifestName is the index file inside a registry directory.
const manifestName = "manifest.json"

// formatVersion is the manifest schema version this build reads and writes.
const formatVersion = 1

// TaskKey identifies one serving task: the coordinates a request selects an
// artifact by. Versions of one key form the task's retraining history.
type TaskKey struct {
	// Model is the paper model name (Average ... GBT-F1).
	Model string `json:"model"`
	// Target is the forecast target as an int (forecast.Target).
	Target int `json:"target"`
	// H is the forecast horizon, W the past-window length.
	H int `json:"h"`
	W int `json:"w"`
}

// KeyFor derives the task key of a trained artifact.
func KeyFor(tr forecast.Trained) TaskKey {
	return TaskKey{Model: tr.ModelName(), Target: int(tr.Target()), H: tr.Horizon(), W: tr.Window()}
}

// String renders the key the way hotserve's selectors spell it.
func (k TaskKey) String() string {
	return fmt.Sprintf("%s/%s/h=%d/w=%d", k.Model, forecast.Target(k.Target), k.H, k.W)
}

// Version is one published artifact: an immutable manifest entry.
type Version struct {
	// ID is the registry-wide monotonically increasing version number.
	ID int `json:"id"`
	// File is the artifact's filename inside the registry directory.
	File string `json:"file"`
	// Cutoff is the artifact's train-data boundary (Trained.Cutoff): the
	// freshness of the fit.
	Cutoff int `json:"cutoff"`
	// Fingerprint is the training-dataset fingerprint as 16 hex digits
	// (forecast.Context.DatasetFingerprint).
	Fingerprint string `json:"fingerprint"`
	// Checksum is the artifact's whole-envelope content checksum as 32 hex
	// digits (forecast.EnvelopeChecksum), stamped at publish. Load and
	// VerifyAll cross-check it so an artifact swapped or corrupted after
	// publish fails loudly before serving; an entry without one is corrupt.
	Checksum string `json:"checksum,omitempty"`
	// SizeBytes is the encoded artifact size on disk.
	SizeBytes int64 `json:"size_bytes"`
	// CreatedUnix is the publish time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
}

// Task is one key's version history, ascending by ID; the last entry is the
// latest.
type Task struct {
	Key      TaskKey   `json:"key"`
	Versions []Version `json:"versions"`
}

// manifest is the on-disk index.
type manifest struct {
	FormatVersion int    `json:"format_version"`
	NextID        int    `json:"next_id"`
	Tasks         []Task `json:"tasks"`
}

// clone deep-copies the manifest so writers never mutate a snapshot readers
// hold.
func (m *manifest) clone() *manifest {
	out := &manifest{FormatVersion: m.FormatVersion, NextID: m.NextID,
		Tasks: make([]Task, len(m.Tasks))}
	for i, task := range m.Tasks {
		out.Tasks[i] = Task{Key: task.Key,
			Versions: append([]Version(nil), task.Versions...)}
	}
	return out
}

// state is one immutable manifest snapshot plus the stat identity it was
// read at (for cheap change detection) and a local reload generation.
type state struct {
	m       *manifest
	modTime time.Time
	size    int64
	gen     uint64
}

// Registry is a handle on one registry directory. All methods are safe for
// concurrent use; writes (Publish, Prune, Refresh) are serialized.
type Registry struct {
	dir   string
	fs    faultfs.FS                            // all disk I/O goes through this (faultfs.OS in production)
	retry retry.Policy                          // transient-I/O backoff for Open/Refresh/Load
	cache *bytelru.Cache[int, forecast.Trained] // by version ID; nil when caching is disabled

	mu  sync.Mutex // serializes writers and manifest swaps
	cur atomic.Pointer[state]

	// quar is the in-memory quarantine: version ID → reason. A version lands
	// here when its artifact fails the checksum gate, decode, or a manifest
	// cross-check; Latest skips quarantined versions so serving falls back to
	// the newest version that still verifies. Quarantine is per-handle and
	// deliberately not persisted — a fixed file (restored from backup,
	// re-published) is picked up again on restart.
	qmu  sync.Mutex
	quar map[int]string

	// failpoint, when non-nil, is consulted before each durability-critical
	// step of a publish ("artifact-write", "artifact-sync",
	// "artifact-rename", "manifest-write", "manifest-sync",
	// "manifest-rename"). A non-nil return aborts the publish at that stage
	// with the torn on-disk state a real crash would leave — the
	// crash-safety tests inject failures here.
	failpoint func(stage string) error
}

// Open loads (or initializes) the registry at dir, creating the directory
// if needed. cacheBytes bounds the decoded-artifact cache: 0 selects
// forecast.DefaultModelCacheBytes, negative disables caching.
func Open(dir string, cacheBytes int64) (*Registry, error) {
	return OpenFS(dir, cacheBytes, nil)
}

// OpenFS is Open through an injectable filesystem (nil means the real OS).
// Every disk operation the registry performs — manifest reads, atomic
// artifact writes, prune removals — goes through fsys, so the fault-
// injection suite can corrupt, tear, or fail any step deterministically.
// Transient I/O errors while reading the manifest are retried with
// jittered backoff before Open gives up.
func OpenFS(dir string, cacheBytes int64, fsys faultfs.FS) (*Registry, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{dir: dir, fs: fsys, retry: retry.Default(), quar: make(map[int]string)}
	if cacheBytes >= 0 {
		if cacheBytes == 0 {
			cacheBytes = forecast.DefaultModelCacheBytes
		}
		r.cache = bytelru.New[int, forecast.Trained](cacheBytes)
		// Latest-wins rebind: a process that reopens its registry (tests,
		// reconfiguration) reports the live handle's cache.
		bytelru.RegisterMetrics(obs.Default(), "registry", r.cache.Meter().Stats)
	}
	var st *state
	err := r.retry.Do(context.Background(), func() error {
		var rerr error
		st, rerr = r.readManifest()
		return rerr
	})
	if err != nil {
		return nil, err
	}
	r.cur.Store(st)
	return r, nil
}

// Dir returns the registry directory.
func (r *Registry) Dir() string { return r.dir }

// ManifestPath returns the path of the registry's index file.
func (r *Registry) ManifestPath() string { return filepath.Join(r.dir, manifestName) }

// Generation counts successful manifest (re)loads on this handle: it
// changes exactly when Refresh observes a new manifest, so pollers can
// cheaply detect "something reloaded".
func (r *Registry) Generation() uint64 { return r.cur.Load().gen }

// readManifest loads the on-disk manifest (an absent file is the empty
// registry). Callers swap the returned state in under r.mu.
func (r *Registry) readManifest() (*state, error) {
	path := r.ManifestPath()
	fi, err := r.fs.Stat(path)
	if os.IsNotExist(err) {
		return &state{m: &manifest{FormatVersion: formatVersion, NextID: 1}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("registry: corrupt manifest %s: %w", path, err)
	}
	if m.FormatVersion != formatVersion {
		return nil, fmt.Errorf("registry: manifest %s has format version %d (this build reads %d)",
			path, m.FormatVersion, formatVersion)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("registry: corrupt manifest %s: %w", path, err)
	}
	return &state{m: &m, modTime: fi.ModTime(), size: fi.Size()}, nil
}

// validate rejects a manifest whose entries would make the registry touch
// files it does not own: every artifact must be a plain file name inside
// the directory other than the manifest itself (Load, VerifyAll and Prune
// join it onto the registry path; Base("") is "."), every version ID
// positive and unique, and next_id above them all so Publish never reuses
// an ID — and with it a live version's file name.
func (m *manifest) validate() error {
	seen := make(map[int]bool)
	maxID := 0
	for _, task := range m.Tasks {
		for _, v := range task.Versions {
			if v.ID < 1 || seen[v.ID] {
				return fmt.Errorf("version ID %d is non-positive or duplicated", v.ID)
			}
			seen[v.ID] = true
			maxID = max(maxID, v.ID)
			if v.File == "." || v.File == ".." || v.File == manifestName || filepath.Base(v.File) != v.File {
				return fmt.Errorf("version %d names file %q, not an artifact inside the registry directory", v.ID, v.File)
			}
		}
	}
	if m.NextID <= maxID {
		return fmt.Errorf("next_id %d does not exceed version ID %d", m.NextID, maxID)
	}
	return nil
}

// Refresh re-reads the manifest if it changed on disk since this handle
// last loaded it (another process published or pruned), reporting whether a
// new manifest was picked up. Transient I/O errors (a stat racing a
// publisher's rename, an interrupted read) are retried with jittered
// backoff before Refresh reports failure; parse failures leave the current
// snapshot serving either way.
func (r *Registry) Refresh() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	var changed bool
	var st *state
	err := r.retry.Do(context.Background(), func() error {
		changed = false
		st = nil
		fi, err := r.fs.Stat(r.ManifestPath())
		if os.IsNotExist(err) {
			return nil // nothing published yet; keep the empty snapshot
		}
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		if fi.ModTime().Equal(cur.modTime) && fi.Size() == cur.size {
			return nil
		}
		changed = true
		st, err = r.readManifest()
		return err
	})
	if err != nil {
		return false, err
	}
	if !changed {
		return false, nil
	}
	st.gen = cur.gen + 1
	r.cur.Store(st)
	reloadsTotal.Inc()
	return true, nil
}

// fail consults the publish failpoint (tests only; nil in production).
func (r *Registry) fail(stage string) error {
	if r.failpoint == nil {
		return nil
	}
	return r.failpoint(stage)
}

// writeFileAtomic durably writes name inside the registry directory:
// temp file, fsync, rename. On error the temp file is left behind, exactly
// like a crash — Open and the manifest ignore it.
func (r *Registry) writeFileAtomic(name, kind string, data []byte) error {
	path := filepath.Join(r.dir, name)
	tmp := path + ".tmp"
	if err := r.fail(kind + "-write"); err != nil {
		_ = os.WriteFile(tmp, data[:len(data)/2], 0o644) // torn temp, as a crash mid-write leaves
		return err
	}
	f, err := r.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := r.fail(kind + "-sync"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := r.fail(kind + "-rename"); err != nil {
		return err
	}
	if err := r.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.syncDir()
	return nil
}

// syncDir best-effort fsyncs the directory so the rename itself is durable.
func (r *Registry) syncDir() {
	if d, err := r.fs.Open(r.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// writeManifest durably replaces the manifest. Callers hold r.mu.
func (r *Registry) writeManifest(m *manifest) (*state, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	data = append(data, '\n')
	if err := r.writeFileAtomic(manifestName, "manifest", data); err != nil {
		return nil, err
	}
	fi, err := os.Stat(r.ManifestPath())
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &state{m: m, modTime: fi.ModTime(), size: fi.Size()}, nil
}

// artifactFile names a version's artifact on disk.
func artifactFile(id int, model string) string {
	slug := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			return c
		case c >= 'A' && c <= 'Z':
			return c + ('a' - 'A')
		default:
			return '-'
		}
	}, model)
	return fmt.Sprintf("v%06d-%s.hotm", id, slug)
}

// Publish durably stores tr as the new latest version of its task: the
// artifact file lands (temp + fsync + rename) before the manifest is
// atomically replaced, so a crash at any stage leaves the previous latest
// version fully readable. Returns the new version entry.
func (r *Registry) Publish(tr forecast.Trained) (Version, error) {
	data, err := forecast.EncodeModel(tr)
	if err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	id := cur.m.NextID
	v := Version{
		ID:          id,
		File:        artifactFile(id, tr.ModelName()),
		Cutoff:      tr.Cutoff(),
		Fingerprint: fmt.Sprintf("%016x", tr.DatasetFingerprint()),
		Checksum:    forecast.EnvelopeChecksum(data).String(),
		SizeBytes:   int64(len(data)),
		CreatedUnix: time.Now().Unix(),
	}
	if err := r.writeFileAtomic(v.File, "artifact", data); err != nil {
		return Version{}, err
	}
	next := cur.m.clone()
	next.NextID = id + 1
	key := KeyFor(tr)
	idx := -1
	for i := range next.Tasks {
		if next.Tasks[i].Key == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		next.Tasks = append(next.Tasks, Task{Key: key})
		idx = len(next.Tasks) - 1
		sort.Slice(next.Tasks, func(a, b int) bool { return taskLess(next.Tasks[a].Key, next.Tasks[b].Key) })
		for i := range next.Tasks {
			if next.Tasks[i].Key == key {
				idx = i
				break
			}
		}
	}
	next.Tasks[idx].Versions = append(next.Tasks[idx].Versions, v)
	st, err := r.writeManifest(next)
	if err != nil {
		// The artifact file may have landed; it is an ignored orphan until a
		// later publish of the same ID overwrites it.
		return Version{}, err
	}
	st.gen = cur.gen + 1
	r.cur.Store(st)
	publishesTotal.Inc()
	return v, nil
}

// taskLess orders tasks deterministically in the manifest (and List).
func taskLess(a, b TaskKey) bool {
	if a.Model != b.Model {
		return a.Model < b.Model
	}
	if a.Target != b.Target {
		return a.Target < b.Target
	}
	if a.H != b.H {
		return a.H < b.H
	}
	return a.W < b.W
}

// List returns a snapshot of every task and its full version history,
// deterministically ordered. The result is the caller's to keep.
func (r *Registry) List() []Task {
	return r.cur.Load().m.clone().Tasks
}

// Quarantine marks version id as unservable with a reason. Latest skips
// quarantined versions, so serving falls back to the newest version that
// still verifies. Quarantining an already-quarantined version keeps the
// first reason (the root cause).
func (r *Registry) Quarantine(id int, reason string) {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if _, dup := r.quar[id]; dup {
		return
	}
	r.quar[id] = reason
	quarantinedTotal.Inc()
	quarantinedNow.Set(int64(len(r.quar)))
}

// IsQuarantined reports whether version id is quarantined on this handle.
func (r *Registry) IsQuarantined(id int) bool {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	_, ok := r.quar[id]
	return ok
}

// Quarantined returns a snapshot of the quarantine: version ID → reason.
func (r *Registry) Quarantined() map[int]string {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	out := make(map[int]string, len(r.quar))
	for id, reason := range r.quar {
		out[id] = reason
	}
	return out
}

// Latest returns the newest non-quarantined version of key, if the task has
// any. A task whose every version is quarantined reports none: serving a
// known-corrupt artifact is worse than serving nothing.
func (r *Registry) Latest(key TaskKey) (Version, bool) {
	m := r.cur.Load().m
	for i := range m.Tasks {
		if m.Tasks[i].Key != key {
			continue
		}
		vs := m.Tasks[i].Versions
		for j := len(vs) - 1; j >= 0; j-- {
			if !r.IsQuarantined(vs[j].ID) {
				return vs[j], true
			}
		}
	}
	return Version{}, false
}

// Get returns version id of key.
func (r *Registry) Get(key TaskKey, id int) (Version, bool) {
	m := r.cur.Load().m
	for i := range m.Tasks {
		if m.Tasks[i].Key != key {
			continue
		}
		for _, v := range m.Tasks[i].Versions {
			if v.ID == id {
				return v, true
			}
		}
	}
	return Version{}, false
}

// Load decodes v's artifact, through the registry's single-flight
// byte-budgeted cache: concurrent readers of one version share one decode,
// and hot versions stay resident within the byte budget. The artifact's
// envelope checksum and the manifest metadata (checksum, cutoff,
// fingerprint) are cross-checked against the decoded artifact, so a
// swapped, torn or doctored file fails loudly — and a failure that is not
// transient I/O quarantines the version, making Latest fall back to the
// newest version that still verifies.
func (r *Registry) Load(v Version) (forecast.Trained, error) {
	build := func() (forecast.Trained, error) {
		l0 := time.Now()
		defer func() { loadSeconds.ObserveDuration(time.Since(l0)) }()
		tr, sum, err := forecast.LoadModelFileSum(r.fs, filepath.Join(r.dir, v.File))
		if err != nil {
			return nil, fmt.Errorf("registry: version %d: %w", v.ID, err)
		}
		if err := checkSum(v, sum); err != nil {
			return nil, err
		}
		if tr.Cutoff() != v.Cutoff {
			return nil, fmt.Errorf("registry: version %d: artifact cutoff %d does not match manifest cutoff %d",
				v.ID, tr.Cutoff(), v.Cutoff)
		}
		if fp := tr.DatasetFingerprint(); v.Fingerprint != fmt.Sprintf("%016x", fp) {
			return nil, fmt.Errorf("registry: version %d: artifact fingerprint %016x does not match manifest %q",
				v.ID, fp, v.Fingerprint)
		}
		return tr, nil
	}
	tr, err := r.load(v, build)
	if err != nil && !retry.Transient(err) {
		// Structural corruption (bad checksum, failed decode, metadata
		// mismatch) does not heal by retrying: pull the version out of the
		// serving rotation. Transient I/O is left alone — the file may be fine.
		r.Quarantine(v.ID, err.Error())
	}
	return tr, err
}

// load runs build through the decoded-artifact cache when one is enabled.
func (r *Registry) load(v Version, build func() (forecast.Trained, error)) (forecast.Trained, error) {
	if r.cache == nil {
		return build()
	}
	// Version IDs are registry-wide and never reused, so one names one
	// artifact.
	return r.cache.GetOrBuild(v.ID, build)
}

// LoadLatest resolves and decodes the newest loadable version of key,
// verifying the artifact actually is that task's model. When the newest
// version fails verification it is quarantined and the next-newest is
// tried, walking back until a version loads clean — the serving fallback
// that keeps a corrupted publish from taking a task down. The error from
// the newest (first-tried) version is reported if no version loads.
func (r *Registry) LoadLatest(key TaskKey) (forecast.Trained, Version, error) {
	var firstErr error
	for {
		v, ok := r.Latest(key)
		if !ok {
			if firstErr != nil {
				return nil, Version{}, fmt.Errorf("registry: no loadable version for %s: %w", key, firstErr)
			}
			return nil, Version{}, fmt.Errorf("registry: no versions published for %s", key)
		}
		tr, err := r.Load(v)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if !r.IsQuarantined(v.ID) {
				// Transient I/O: the artifact itself may be fine, so do not
				// silently fall back to a stale version — surface the error.
				return nil, Version{}, err
			}
			continue // quarantined by Load; Latest now resolves past it
		}
		if got := KeyFor(tr); got != key {
			err := fmt.Errorf("registry: version %d: file %s holds %s, manifest says %s",
				v.ID, v.File, got, key)
			r.Quarantine(v.ID, err.Error())
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return tr, v, nil
	}
}

// VerifyResult is one version's fsck outcome.
type VerifyResult struct {
	Key     TaskKey
	Version Version
	Err     error // nil when the artifact verified clean
}

// VerifyAll checksums every artifact the manifest references against its
// manifest entry — the registry fsck behind hotforecast -verify. Versions
// that fail are quarantined on this handle. Results are returned for every
// version, deterministic order (manifest task order, ascending ID).
func (r *Registry) VerifyAll() []VerifyResult {
	var out []VerifyResult
	for _, task := range r.cur.Load().m.Tasks {
		for _, v := range task.Versions {
			err := r.verifyVersion(v)
			if err != nil {
				r.Quarantine(v.ID, err.Error())
			}
			out = append(out, VerifyResult{Key: task.Key, Version: v, Err: err})
		}
	}
	return out
}

// verifyVersion checks one artifact file against its manifest entry without
// decoding it into a servable model: size, envelope version and section
// checksums, and the manifest-stamped whole-envelope checksum.
func (r *Registry) verifyVersion(v Version) error {
	data, err := r.fs.ReadFile(filepath.Join(r.dir, v.File))
	if err != nil {
		return fmt.Errorf("registry: version %d: %w", v.ID, err)
	}
	if int64(len(data)) != v.SizeBytes {
		return fmt.Errorf("registry: version %d: artifact is %d bytes, manifest says %d",
			v.ID, len(data), v.SizeBytes)
	}
	sum, err := forecast.VerifyEnvelope(data)
	if err != nil {
		return fmt.Errorf("registry: version %d: %w", v.ID, err)
	}
	return checkSum(v, sum)
}

// checkSum cross-checks an artifact's whole-envelope checksum against the
// one its manifest entry stamped at publish.
func checkSum(v Version, sum binenc.Sum) error {
	if v.Checksum == "" {
		return fmt.Errorf("registry: version %d: manifest entry has no checksum", v.ID)
	}
	want, err := binenc.ParseSum(v.Checksum)
	if err != nil {
		return fmt.Errorf("registry: version %d: %w", v.ID, err)
	}
	if sum != want {
		return fmt.Errorf("registry: version %d: artifact checksum %s does not match manifest %s",
			v.ID, sum, want)
	}
	return nil
}

// CacheStats reports the decoded-artifact cache counters (zero value when
// caching is disabled).
func (r *Registry) CacheStats() bytelru.Stats {
	if r.cache == nil {
		return bytelru.Stats{}
	}
	return r.cache.Stats()
}

// PruneOpts selects which published versions an artifact GC pass drops.
// Criteria compose: a version is dropped when any enabled criterion
// condemns it — except a task's latest version, which no criterion may
// touch (every task keeps serving). Zero values disable a criterion; at
// least one must be enabled.
type PruneOpts struct {
	// KeepN keeps at most the newest N versions of every task (0 = no
	// per-task count limit).
	KeepN int
	// MaxAge drops versions published longer than this ago (0 = no age
	// limit).
	MaxAge time.Duration
	// MaxTotalBytes bounds the summed SizeBytes of all retained versions:
	// the globally oldest prunable versions (lowest ID) are dropped until
	// the registry fits the budget or only task-latest versions remain
	// (0 = no byte budget).
	MaxTotalBytes int64
}

// Prune drops all but the newest keepN versions of every task. It is
// the count-only special case of PruneWith.
func (r *Registry) Prune(keepN int) ([]Version, error) {
	if keepN < 1 {
		return nil, fmt.Errorf("registry: prune must keep at least 1 version, got %d", keepN)
	}
	return r.PruneWith(PruneOpts{KeepN: keepN})
}

// PruneWith garbage-collects published artifacts per opts: the manifest
// is atomically replaced first, then the dropped artifact files are
// removed, so a crash mid-prune leaves at worst ignored orphan files.
// Serving processes that already loaded a dropped version keep their
// decoded artifact — pruning unpublishes, it cannot yank memory. Returns
// the dropped versions, ascending by ID.
func (r *Registry) PruneWith(opts PruneOpts) ([]Version, error) {
	return r.pruneAt(opts, time.Now())
}

// pruneAt is PruneWith at an explicit clock (tests pin it).
func (r *Registry) pruneAt(opts PruneOpts, now time.Time) ([]Version, error) {
	if opts.KeepN < 0 || opts.MaxAge < 0 || opts.MaxTotalBytes < 0 {
		return nil, fmt.Errorf("registry: negative prune criterion %+v", opts)
	}
	if opts.KeepN == 0 && opts.MaxAge == 0 && opts.MaxTotalBytes == 0 {
		return nil, fmt.Errorf("registry: prune needs at least one criterion (keep-n, max-age or max-bytes)")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	next := cur.m.clone()
	drop := make(map[int]bool)
	var total int64        // bytes retained so far (latest versions included)
	var prunable []Version // survivors the byte budget may still claim, any task, non-latest
	for ti := range next.Tasks {
		vs := next.Tasks[ti].Versions
		for i, v := range vs {
			if i == len(vs)-1 {
				total += v.SizeBytes // the latest is untouchable
				continue
			}
			byCount := opts.KeepN > 0 && i < len(vs)-opts.KeepN
			byAge := opts.MaxAge > 0 && now.Sub(time.Unix(v.CreatedUnix, 0)) > opts.MaxAge
			if byCount || byAge {
				drop[v.ID] = true
				continue
			}
			total += v.SizeBytes
			prunable = append(prunable, v)
		}
	}
	if opts.MaxTotalBytes > 0 && total > opts.MaxTotalBytes {
		sort.Slice(prunable, func(a, b int) bool { return prunable[a].ID < prunable[b].ID })
		for _, v := range prunable {
			if total <= opts.MaxTotalBytes {
				break
			}
			drop[v.ID] = true
			total -= v.SizeBytes
		}
	}
	if len(drop) == 0 {
		return nil, nil
	}
	var dropped []Version
	for ti := range next.Tasks {
		vs := next.Tasks[ti].Versions
		kept := vs[:0:0]
		for _, v := range vs {
			if drop[v.ID] {
				dropped = append(dropped, v)
			} else {
				kept = append(kept, v)
			}
		}
		next.Tasks[ti].Versions = kept
	}
	sort.Slice(dropped, func(a, b int) bool { return dropped[a].ID < dropped[b].ID })
	st, err := r.writeManifest(next)
	if err != nil {
		return nil, err
	}
	st.gen = cur.gen + 1
	r.cur.Store(st)
	for _, v := range dropped {
		_ = r.fs.Remove(filepath.Join(r.dir, v.File))
	}
	pruneDropsTotal.Add(uint64(len(dropped)))
	return dropped, nil
}
