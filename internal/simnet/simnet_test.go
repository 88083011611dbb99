package simnet

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/randx"
	"repro/internal/timegrid"
)

// smallConfig returns a fast configuration for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Sectors = 120
	cfg.Weeks = 6
	cfg.Cities = 3
	return cfg
}

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Topo.Sectors)
	if n < 120 {
		t.Fatalf("expected >= 120 sectors, got %d", n)
	}
	if ds.K.N != n || ds.K.T != 6*168 || ds.K.F != NumKPIs {
		t.Fatalf("K shape = %d x %d x %d", ds.K.N, ds.K.T, ds.K.F)
	}
	if ds.Truth.HotDrive.Rows != n || ds.Truth.HotDrive.Cols != ds.K.T {
		t.Fatal("truth shape mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.K.Data) != len(b.K.Data) {
		t.Fatal("different sizes")
	}
	for i := range a.K.Data {
		va, vb := a.K.Data[i], b.K.Data[i]
		if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
			t.Fatalf("data differs at %d: %v vs %v", i, va, vb)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 99
	b, _ := Generate(cfg)
	diff := 0
	limit := len(a.K.Data)
	if len(b.K.Data) < limit {
		limit = len(b.K.Data)
	}
	for i := 0; i < limit; i++ {
		if a.K.Data[i] != b.K.Data[i] {
			diff++
		}
	}
	if diff < limit/10 {
		t.Fatalf("seeds produce nearly identical data (%d/%d differ)", diff, limit)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Sectors = 1 },
		func(c *Config) { c.Weeks = 2 },
		func(c *Config) { c.Cities = 0 },
		func(c *Config) { c.ProfileMix = [5]float64{0, 0, 0, 0, 0} },
		func(c *Config) { c.ProfileMix[0] = -1 },
		func(c *Config) { c.EmergingRampMin = 0 },
		func(c *Config) { c.EmergingRampMax = 1; c.EmergingRampMin = 5 },
		func(c *Config) { c.EmergingCooldownMin = 0 },
		func(c *Config) { c.MissingTarget = 0.9 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestMissingFractionNearTarget(t *testing.T) {
	cfg := smallConfig()
	cfg.BadSectorFrac = 0 // isolate the bulk mechanisms
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := ds.K.MissingFraction()
	if frac < cfg.MissingTarget*0.5 || frac > cfg.MissingTarget*2 {
		t.Fatalf("missing fraction %v far from target %v", frac, cfg.MissingTarget)
	}
}

func TestNoMissingWhenDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.MissingTarget = 0
	cfg.BadSectorFrac = 0
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if frac := ds.K.MissingFraction(); frac != 0 {
		t.Fatalf("missing fraction = %v, want 0", frac)
	}
}

func TestKPIsWithinBounds(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.K.N; i += 7 {
		for j := 0; j < ds.K.T; j += 13 {
			cell := ds.K.Cell(i, j)
			for f, v := range cell {
				if math.IsNaN(v) {
					continue
				}
				if v < catalogue[f].Min-1e-9 || v > catalogue[f].Max+1e-9 {
					t.Fatalf("KPI %s out of bounds: %v", catalogue[f].Name, v)
				}
			}
		}
	}
}

func TestHotDriveRespectsProfiles(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Persistent sectors should be driven hot much more than never-hot ones.
	var persistentHours, neverHours, persistentCount, neverCount float64
	for _, sec := range ds.Topo.Sectors {
		row := ds.Truth.HotDrive.Row(sec.ID)
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		switch sec.Profile {
		case Persistent:
			persistentHours += sum
			persistentCount++
		case NeverHot:
			neverHours += sum
			neverCount++
		}
	}
	if persistentCount > 0 && neverCount > 0 {
		perP := persistentHours / persistentCount
		perN := neverHours / neverCount
		if perP < 10*perN+1 {
			t.Fatalf("persistent sectors not clearly hotter: %v vs %v hot hours", perP, perN)
		}
	}
}

func TestHotWindowIs16Hours(t *testing.T) {
	cfg := smallConfig()
	cfg.ProfileMix = [5]float64{0, 0, 0, 1, 0} // all persistent
	cfg.MissingTarget = 0
	cfg.BadSectorFrac = 0
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count hot hours on hot days; mode should be 16 (07:00-22:59).
	counts := map[int]int{}
	for i := 0; i < ds.Truth.HotDrive.Rows; i++ {
		row := ds.Truth.HotDrive.Row(i)
		for d := 0; d < ds.Grid.Days(); d++ {
			c := 0
			for h := 0; h < 24; h++ {
				if row[d*24+h] > 0 {
					c++
				}
			}
			if c > 0 {
				counts[c]++
			}
		}
	}
	best, bestCount := 0, 0
	for c, cnt := range counts {
		if cnt > bestCount {
			best, bestCount = c, cnt
		}
	}
	if best != 16 {
		t.Fatalf("modal hot hours per day = %d, want 16 (counts: %v)", best, counts)
	}
}

func TestEmergingEpisodesRecorded(t *testing.T) {
	cfg := smallConfig()
	cfg.Weeks = 18
	cfg.ProfileMix = [5]float64{0.2, 0, 0, 0, 0.8}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Truth.Episodes) == 0 {
		t.Fatal("no emerging episodes recorded")
	}
	var normal, aborted, sudden int
	for _, ep := range ds.Truth.Episodes {
		if ep.HotStart < ep.RampStart || ep.HotEnd < ep.HotStart {
			t.Fatalf("inconsistent episode %+v", ep)
		}
		switch {
		case ep.Aborted:
			aborted++
		case ep.Sudden:
			sudden++
		default:
			normal++
		}
		if !ep.Sudden && ep.HotStart-ep.RampStart < cfg.EmergingRampMin {
			t.Fatalf("ramp too short: %+v", ep)
		}
	}
	if normal == 0 || aborted == 0 || sudden == 0 {
		t.Fatalf("expected all episode kinds: normal=%d aborted=%d sudden=%d", normal, aborted, sudden)
	}
}

func TestTableIIDistributionDraw(t *testing.T) {
	rng := randx.New(7, 7)
	counts := map[uint8]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[drawWeeklyPattern(rng)]++
	}
	full := bit(0, 1, 2, 3, 4, 5, 6)
	workweek := bit(0, 1, 2, 3, 4)
	fullFrac := float64(counts[full]) / draws * 100
	workFrac := float64(counts[workweek]) / draws * 100
	if fullFrac < 11 || fullFrac > 18 {
		t.Fatalf("MTWTFSS frequency = %.1f%%, want ~14.4%%", fullFrac)
	}
	if workFrac < 6 || workFrac > 11 {
		t.Fatalf("MTWTF frequency = %.1f%%, want ~8.5%%", workFrac)
	}
	if counts[0] != 0 {
		t.Fatal("empty pattern drawn")
	}
}

// TestSelectSectors compacts a generated dataset in place and checks it
// against a copy taken before the call: every survivor keeps its KPI and
// HotDrive rows bit for bit (NaN payloads included), its topology entry
// with a dense new ID, its tower (renumbered in order of first survivor)
// and its truth episodes.
func TestSelectSectors(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds.K.Set(3, 7, 2, nanPayload)  // kept
	ds.K.Set(14, 0, 0, nanPayload) // dropped
	ref, err := Load(bytes.NewReader(saveBytes(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for i := 0; i < ds.N(); i++ {
		if i%7 != 0 {
			keep = append(keep, i)
		}
	}
	storage := &ds.K.Data[0]
	sub := ds.SelectSectors(keep)
	if sub != ds || &sub.K.Data[0] != storage {
		t.Fatal("SelectSectors did not work in place")
	}
	if sub.N() != len(keep) || sub.Truth.HotDrive.Rows != len(keep) ||
		len(sub.K.Data) != cap(sub.K.Data) || len(sub.Topo.Sectors) != len(keep) {
		t.Fatalf("shapes after selecting %d sectors: N=%d HotDrive=%d sectors=%d",
			len(keep), sub.N(), sub.Truth.HotDrive.Rows, len(sub.Topo.Sectors))
	}

	newID := map[int]int{}
	newTower := map[int]int{}
	for id, old := range keep {
		newID[old] = id
		if at, ok := sameBits(sub.K.Sector(id), ref.K.Sector(old)); !ok {
			t.Fatalf("sector %d (was %d): K differs at %d", id, old, at)
		}
		if at, ok := sameBits(sub.Truth.HotDrive.Row(id), ref.Truth.HotDrive.Row(old)); !ok {
			t.Fatalf("sector %d (was %d): HotDrive differs at %d", id, old, at)
		}
		want := ref.Topo.Sectors[old]
		if _, ok := newTower[want.Tower]; !ok {
			newTower[want.Tower] = len(newTower)
		}
		want.ID, want.Tower = id, newTower[want.Tower]
		if got := sub.Topo.Sectors[id]; got != want {
			t.Fatalf("sector %d (was %d): topology %+v, want %+v", id, old, got, want)
		}
	}
	if len(sub.Topo.Towers) != len(newTower) {
		t.Fatalf("%d towers, want %d", len(sub.Topo.Towers), len(newTower))
	}
	for old, id := range newTower {
		got, was := sub.Topo.Towers[id], ref.Topo.Towers[old]
		if got.ID != id || got.X != was.X || got.Y != was.Y || got.City != was.City || got.Class != was.Class {
			t.Fatalf("tower %d (was %d): %+v, want %+v", id, old, got, was)
		}
		var members []int
		for _, s := range was.Sectors {
			if n, ok := newID[s]; ok {
				members = append(members, n)
			}
		}
		if !reflect.DeepEqual(got.Sectors, members) {
			t.Fatalf("tower %d sectors %v, want %v", id, got.Sectors, members)
		}
	}
	var episodes []Episode
	for _, ep := range ref.Truth.Episodes {
		if n, ok := newID[ep.Sector]; ok {
			ep.Sector = n
			episodes = append(episodes, ep)
		}
	}
	if len(episodes) == 0 || len(episodes) == len(ref.Truth.Episodes) {
		t.Fatalf("selection keeps %d of %d episodes: pick sectors that keep some and drop some",
			len(episodes), len(ref.Truth.Episodes))
	}
	if !reflect.DeepEqual(sub.Truth.Episodes, episodes) {
		t.Fatal("truth episodes not re-indexed like the survivors")
	}
}

func TestTopologySameTowerSameSpot(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range ds.Topo.Towers {
		for _, sid := range tw.Sectors {
			sec := ds.Topo.Sectors[sid]
			if sec.X != tw.X || sec.Y != tw.Y {
				t.Fatal("sector not co-located with its tower")
			}
			if sec.Tower != tw.ID {
				t.Fatal("tower back-reference wrong")
			}
		}
		if len(tw.Sectors) < 1 || len(tw.Sectors) > 3 {
			t.Fatalf("tower has %d sectors", len(tw.Sectors))
		}
	}
}

func TestCatalogueInvariants(t *testing.T) {
	if len(catalogue) != NumKPIs {
		t.Fatalf("catalogue has %d entries, want %d", len(catalogue), NumKPIs)
	}
	names := map[string]bool{}
	for i, k := range catalogue {
		if k.Weight <= 0 {
			t.Errorf("KPI %d weight <= 0", i)
		}
		if k.Bad == k.Base {
			t.Errorf("KPI %d has no dynamic range", i)
		}
		frac := k.thresholdFrac()
		if frac <= 0.2 || frac >= 0.95 {
			t.Errorf("KPI %s threshold fraction %v outside (0.2,0.95)", k.Name, frac)
		}
		if names[k.Name] {
			t.Errorf("duplicate KPI name %s", k.Name)
		}
		names[k.Name] = true
	}
	// Paper-pinned indices (zero-based).
	pins := map[int]string{
		5: "NoiseRiseDB", 7: "DataUtilizationRate", 8: "HSQueuedUsers",
		9: "ChannelSetupFailureRate", 11: "NoiseFloorDBM", 13: "TTIOccupancyRatio",
	}
	for idx, name := range pins {
		if catalogue[idx].Name != name {
			t.Errorf("catalogue[%d] = %s, want %s", idx, catalogue[idx].Name, name)
		}
	}
}

func TestKPIValueHotCrossesThreshold(t *testing.T) {
	// During a fully hot hour most KPIs should exceed their threshold, and
	// during a quiet hour almost none should.
	hotCross, coldCross := 0, 0
	for i := range catalogue {
		kp := &catalogue[i]
		if v := kp.value(0.5, 0, 0, 1.0, 0); v >= kp.Threshold {
			hotCross++
		}
		if v := kp.value(0.3, 0, 0, 0, 0); v >= kp.Threshold {
			coldCross++
		}
	}
	if hotCross < NumKPIs-3 {
		t.Fatalf("only %d/%d KPIs cross threshold when hot", hotCross, NumKPIs)
	}
	if coldCross > 1 {
		t.Fatalf("%d KPIs cross threshold when cold", coldCross)
	}
}

func TestKPIRampStaysBelowThresholdMostly(t *testing.T) {
	// At ramp stress (~0.5 effective), the weighted crossing fraction must
	// stay under the operator threshold 0.6 so ramps do not flip labels.
	totalW, crossW := 0.0, 0.0
	for i := range catalogue {
		kp := &catalogue[i]
		totalW += kp.Weight
		if v := kp.value(0.6, 0.5, 0, 0, 0); v >= kp.Threshold {
			crossW += kp.Weight
		}
	}
	if frac := crossW / totalW; frac > 0.5 {
		t.Fatalf("ramp crossing fraction %v too high (would flip labels)", frac)
	}
}

func TestClassDiurnalShapes(t *testing.T) {
	// Business peaks during office hours; residential in the evening.
	if classDiurnal(Business, 13) <= classDiurnal(Business, 3) {
		t.Fatal("business should peak at midday")
	}
	if classDiurnal(Residential, 20) <= classDiurnal(Residential, 10) {
		t.Fatal("residential should peak in the evening")
	}
	for c := LandUse(0); c < numLandUses; c++ {
		for h := 0; h < 24; h++ {
			v := classDiurnal(c, h)
			if v <= 0 || v > 1.2 {
				t.Fatalf("diurnal(%v,%d) = %v out of range", c, h, v)
			}
		}
	}
}

func TestClassWeekday(t *testing.T) {
	if classWeekday(Business, 5, false) >= classWeekday(Business, 0, false) {
		t.Fatal("business weekends should be quieter")
	}
	if classWeekday(Commercial, 5, false) <= 1.0 {
		t.Fatal("commercial Saturdays should be busier")
	}
}

func TestGridMatchesConfigWeeks(t *testing.T) {
	cfg := smallConfig()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Grid.Weeks != cfg.Weeks {
		t.Fatalf("grid weeks = %d, want %d", ds.Grid.Weeks, cfg.Weeks)
	}
	if ds.Grid.Hours() != cfg.Weeks*timegrid.HoursPerWeek {
		t.Fatal("grid hours mismatch")
	}
}
