package scenario

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/simnet"
	"repro/internal/tensor"
)

func smallConfig(seed uint64) simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 80
	cfg.Weeks = 5
	cfg.Seed = seed
	return cfg
}

func equalOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// assembleScenarioStream regenerates through the streamed scenario path and
// reassembles the chunks.
func assembleScenarioStream(t *testing.T, cfg simnet.Config, pack Pack, chunk int) (*tensor.Tensor3, *tensor.Mask) {
	t.Helper()
	s, err := simnet.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, mh := s.N(), s.Grid().Hours()
	k := tensor.NewTensor3(n, mh, simnet.NumKPIs)
	hot := tensor.NewMask(n, mh)
	if err := GenerateStream(cfg, pack, chunk, func(c *simnet.Chunk) error {
		for r := 0; r < c.Hi-c.Lo; r++ {
			copy(k.Sector(c.Lo+r), c.K.Sector(r))
			copy(hot.Row(c.Lo+r), c.Hot.Row(r))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return k, hot
}

// TestScenarioStreamMatchesMaterialized checks the tentpole invariant for
// overlay composition: the streamed scenario path is bit-identical to the
// materialized one at several chunk sizes, for the full perfect-storm
// composition.
func TestScenarioStreamMatchesMaterialized(t *testing.T) {
	cfg := smallConfig(21)
	ds, err := Generate(cfg, PerfectStormPack())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 16, 1000} {
		k, hot := assembleScenarioStream(t, cfg, PerfectStormPack(), chunk)
		for i, v := range k.Data {
			if !equalOrBothNaN(v, ds.K.Data[i]) {
				t.Fatalf("chunk=%d: K mismatch at flat index %d: %v vs %v", chunk, i, v, ds.K.Data[i])
			}
		}
		for i, v := range hot.Data {
			if v != ds.Truth.HotDrive.Data[i] {
				t.Fatalf("chunk=%d: hot mismatch at flat index %d: %v vs %v", chunk, i, v, ds.Truth.HotDrive.Data[i])
			}
		}
	}
}

// TestScenarioDeterministicAcrossGOMAXPROCS mirrors simnet's
// TestGenerateDeterministicAcrossGOMAXPROCS for overlay composition: the
// per-(overlay, sector) RNG keying must make packs bit-identical at any
// worker count.
func TestScenarioDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := smallConfig(33)
	run := func(procs int) *simnet.Dataset {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		ds, err := Generate(cfg, PerfectStormPack())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a := run(1)
	b := run(4)
	for i, v := range a.K.Data {
		if !equalOrBothNaN(v, b.K.Data[i]) {
			t.Fatalf("K differs at flat index %d: %v vs %v", i, v, b.K.Data[i])
		}
	}
	for i, v := range a.Truth.HotDrive.Data {
		if v != b.Truth.HotDrive.Data[i] {
			t.Fatalf("hot differs at flat index %d: %v vs %v", i, v, b.Truth.HotDrive.Data[i])
		}
	}
}

// TestPackValidate rejects compositions that would break the determinism
// contract.
func TestPackValidate(t *testing.T) {
	dup := Pack{Name: "dup", Overlays: []Overlay{
		&Outage{Frac: 0.1, MeanHours: 10},
		&Outage{Frac: 0.2, MeanHours: 10},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate overlay names validated")
	}
	if err := (Pack{}).Validate(); err == nil {
		t.Fatal("empty pack name validated")
	}
	for _, p := range BuiltinPacks() {
		if err := p.Validate(); err != nil {
			t.Fatalf("builtin pack %s: %v", p.Name, err)
		}
	}
}

// TestPackByName resolves every builtin and rejects unknowns.
func TestPackByName(t *testing.T) {
	for _, p := range BuiltinPacks() {
		got, err := PackByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("PackByName(%s) = %v, %v", p.Name, got.Name, err)
		}
	}
	if _, err := PackByName("no-such-pack"); err == nil {
		t.Fatal("unknown pack resolved")
	}
}

func hotCount(m *tensor.Mask) int {
	n := 0
	for _, v := range m.Data {
		n += int(v)
	}
	return n
}

// TestFlashCrowdAddsLocalizedHotHours: the crowd overlay must add hot-drive
// hours and perturb KPI values upward near the epicentre.
func TestFlashCrowdAddsLocalizedHotHours(t *testing.T) {
	cfg := smallConfig(5)
	base, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseHot := hotCount(base.Truth.HotDrive)
	ds, err := Generate(cfg, FlashCrowdPack())
	if err != nil {
		t.Fatal(err)
	}
	if got := hotCount(ds.Truth.HotDrive); got <= baseHot {
		t.Fatalf("flash crowd added no hot hours: %d -> %d", baseHot, got)
	}
}

// TestOutageDegeneratesKPIs: outage hours must peg availability indicators
// at their degraded level, collapse traffic indicators to their floor, and
// be labelled hot.
func TestOutageDegeneratesKPIs(t *testing.T) {
	cfg := smallConfig(9)
	base, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseHot := hotCount(base.Truth.HotDrive)
	pack := Pack{Name: "outage-only", Overlays: []Overlay{&Outage{Frac: 0.5, MeanHours: 30, RepairHours: 6}}}
	ds, err := Generate(cfg, pack)
	if err != nil {
		t.Fatal(err)
	}
	if got := hotCount(ds.Truth.HotDrive); got <= baseHot {
		t.Fatalf("outages added no hot hours: %d -> %d", baseHot, got)
	}
	// Locate the catalogue slots for one pegged and one collapsed KPI.
	unavail, userLoad := -1, -1
	for f, kp := range simnet.Catalogue() {
		switch kp.Name {
		case "CellUnavailabilityRatio":
			unavail = f
		case "ActiveUserLoad":
			userLoad = f
		}
	}
	kps := simnet.Catalogue()
	found := false
	for i := 0; i < ds.N() && !found; i++ {
		for j := 0; j < ds.K.T; j++ {
			if ds.K.At(i, j, unavail) == kps[unavail].Bad && ds.K.At(i, j, userLoad) == kps[userLoad].Min {
				if ds.Truth.HotDrive.At(i, j) != 1 {
					t.Fatalf("degenerate outage hour (%d,%d) not labelled hot", i, j)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no degenerate outage hour found at Frac=0.5")
	}
}

// TestMissingStormRaisesMissingOnly: the storm must raise the missing
// fraction substantially while leaving the ground truth untouched.
func TestMissingStormRaisesMissingOnly(t *testing.T) {
	cfg := smallConfig(13)
	base, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(cfg, MissingStormPack())
	if err != nil {
		t.Fatal(err)
	}
	bm, sm := base.K.MissingFraction(), ds.K.MissingFraction()
	if sm <= bm+0.002 {
		t.Fatalf("missing storm barely moved the missing fraction: %v -> %v", bm, sm)
	}
	for i, v := range ds.Truth.HotDrive.Data {
		if v != base.Truth.HotDrive.Data[i] {
			t.Fatalf("missing storm perturbed ground truth at flat index %d", i)
		}
	}
}

// TestSeasonalDriftRampsLoadKPIs: the drift must lift late-window values of
// a strongly load-coupled KPI relative to baseline, and more at the end
// than at the start.
func TestSeasonalDriftRampsLoadKPIs(t *testing.T) {
	cfg := smallConfig(17)
	base, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(cfg, SeasonalDriftPack())
	if err != nil {
		t.Fatal(err)
	}
	du := -1
	for f, kp := range simnet.Catalogue() {
		if kp.Name == "DataUtilizationRate" {
			du = f
		}
	}
	meanDelta := func(j0, j1 int) float64 {
		sum, cnt := 0.0, 0
		for i := 0; i < ds.N(); i++ {
			for j := j0; j < j1; j++ {
				a, b := ds.K.At(i, j, du), base.K.At(i, j, du)
				if math.IsNaN(a) || math.IsNaN(b) {
					continue
				}
				sum += a - b
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	week := 168
	first := meanDelta(0, week)
	last := meanDelta(ds.K.T-week, ds.K.T)
	if last <= first || last < 0.01 {
		t.Fatalf("drift not ramping: first-week delta %v, last-week delta %v", first, last)
	}
}

// TestLoadShiftRedistributesWithoutLabels: the shift must move KPI mass
// across hours of the day while adding no ground-truth labels.
func TestLoadShiftRedistributesWithoutLabels(t *testing.T) {
	cfg := smallConfig(19)
	base, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(cfg, LoadShiftPack())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ds.Truth.HotDrive.Data {
		if v != base.Truth.HotDrive.Data[i] {
			t.Fatalf("load shift perturbed ground truth at flat index %d", i)
		}
	}
	changed := 0
	for i, v := range ds.K.Data {
		if !equalOrBothNaN(v, base.K.Data[i]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("load shift changed no KPI values")
	}
}
