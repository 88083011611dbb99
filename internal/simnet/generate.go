package simnet

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// Config parameterises the synthetic network. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Seed drives every random choice; equal seeds give equal datasets.
	Seed uint64
	// Sectors is the approximate sector count (tens of thousands in the
	// paper; hundreds to thousands here, see DESIGN.md §6).
	Sectors int
	// Weeks is the observation length (the paper uses 18).
	Weeks int
	// Cities is the number of population centres.
	Cities int
	// ProfileMix gives the probability of each Profile in enum order
	// (NeverHot, WeeklyPattern, Sporadic, Persistent, Emerging). It is
	// normalised internally.
	ProfileMix [5]float64
	// SameTowerProfileProb is the probability that an additional sector on
	// a tower simply copies the tower's first-sector profile, producing the
	// distance-zero correlation spike of Fig. 8A.
	SameTowerProfileProb float64
	// Emerging-episode shape parameters (days).
	EmergingRampMin, EmergingRampMax         int
	EmergingCooldownMin, EmergingCooldownMax int
	// EmergingAbortProb is the chance a ramp recedes without a hot phase.
	EmergingAbortProb float64
	// EmergingSuddenProb is the chance an episode starts with no ramp.
	EmergingSuddenProb float64
	// MissingTarget is the overall fraction of missing KPI entries to
	// inject before sector filtering (the paper reports ~4% after
	// filtering).
	MissingTarget float64
	// BadSectorFrac is the fraction of sectors given >50% missing weeks so
	// the paper's filtering rule has something to discard (~10% discarded
	// in the paper).
	BadSectorFrac float64
}

// DefaultConfig returns the configuration used by the experiments: a
// thousand-ish sector network with the paper's 18-week window and a profile
// mix calibrated so that daily hot-spot prevalence lands near 5-8%, the
// regime implied by the paper's lift magnitudes.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Sectors:              1000,
		Weeks:                timegrid.PaperWeeks,
		Cities:               8,
		ProfileMix:           [5]float64{0.73, 0.09, 0.05, 0.01, 0.12},
		SameTowerProfileProb: 0.6,
		EmergingRampMin:      12,
		EmergingRampMax:      24,
		EmergingCooldownMin:  10,
		EmergingCooldownMax:  24,
		EmergingAbortProb:    0.28,
		EmergingSuddenProb:   0.18,
		MissingTarget:        0.045,
		BadSectorFrac:        0.03,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sectors < 3 {
		return fmt.Errorf("simnet: need at least 3 sectors, got %d", c.Sectors)
	}
	if c.Weeks < 4 {
		return fmt.Errorf("simnet: need at least 4 weeks, got %d", c.Weeks)
	}
	if c.Cities < 1 {
		return fmt.Errorf("simnet: need at least 1 city, got %d", c.Cities)
	}
	sum := 0.0
	for _, p := range c.ProfileMix {
		if p < 0 {
			return fmt.Errorf("simnet: negative profile probability %v", p)
		}
		sum += p
	}
	if sum <= 0 {
		return fmt.Errorf("simnet: profile mix sums to zero")
	}
	if c.EmergingRampMin < 1 || c.EmergingRampMax < c.EmergingRampMin {
		return fmt.Errorf("simnet: bad emerging ramp range [%d,%d]", c.EmergingRampMin, c.EmergingRampMax)
	}
	if c.EmergingCooldownMin < 1 || c.EmergingCooldownMax < c.EmergingCooldownMin {
		return fmt.Errorf("simnet: bad emerging cooldown range [%d,%d]", c.EmergingCooldownMin, c.EmergingCooldownMax)
	}
	if c.MissingTarget < 0 || c.MissingTarget > 0.5 {
		return fmt.Errorf("simnet: missing target %v out of [0,0.5]", c.MissingTarget)
	}
	return nil
}

// Truth is the generator's ground truth, available to tests and analyses
// but never to the forecasting models: they see only the KPIs.
type Truth struct {
	// HotDrive marks the hours during which the generator (or a scenario
	// overlay) drove the sector into degradation: n x mh, one byte per
	// sector-hour, 1 for driven and 0 otherwise. Load rejects any other
	// byte value.
	HotDrive *tensor.Mask
	// Episodes lists every emerging episode (including aborted near
	// misses).
	Episodes []Episode
}

// Dataset bundles everything the downstream pipeline needs: the grid, the
// sector metadata, and the KPI tensor K (with NaNs for missing values).
type Dataset struct {
	Grid   *timegrid.Grid
	Config Config
	Topo   *Topology
	K      *tensor.Tensor3
	Truth  *Truth
}

// N returns the number of sectors.
func (d *Dataset) N() int { return d.K.N }

// Generate builds the full synthetic dataset. It is deterministic in
// cfg.Seed and parallel across sectors. It shares the per-sector emission
// path with the chunked Stream, so materialized and streamed generation are
// bit-identical.
func Generate(cfg Config) (*Dataset, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	n := s.N()
	mh := s.grid.Hours()
	k := tensor.NewTensor3(n, mh, NumKPIs)
	hot := tensor.NewMask(n, mh)
	episodesPerSector := make([][]Episode, n)

	// Fan sectors out on the shared pool; each sector's RNG is keyed by its
	// index, so the dataset is identical at any worker count.
	if err := parallel.For(0, n, func(i int) error {
		episodesPerSector[i] = s.emitInto(i, k.Sector(i), hot.Row(i))
		return nil
	}); err != nil {
		return nil, err
	}

	var episodes []Episode
	for _, eps := range episodesPerSector {
		episodes = append(episodes, eps...)
	}

	return &Dataset{
		Grid:   s.grid,
		Config: cfg,
		Topo:   s.topo,
		K:      k,
		Truth:  &Truth{HotDrive: hot, Episodes: episodes},
	}, nil
}

// assignProfiles draws a profile per sector with same-tower correlation and
// a class-conditioned weekly pattern for WeeklyPattern sectors.
func assignProfiles(topo *Topology, cfg Config, rng *randx.RNG) {
	mix := cfg.ProfileMix[:]
	for _, tower := range topo.Towers {
		var first *Sector
		for _, sid := range tower.Sectors {
			sec := &topo.Sectors[sid]
			if first != nil && rng.Bool(cfg.SameTowerProfileProb) {
				sec.Profile = first.Profile
				sec.Pattern = first.Pattern
				continue
			}
			sec.Profile = Profile(rng.Choice(mix))
			if sec.Profile == WeeklyPattern {
				sec.Pattern = patternClassBias(sec.Class, drawWeeklyPattern(rng), rng)
			}
			if first == nil {
				first = sec
			}
		}
	}
}

// sharedEvents holds country-level modulations every sector sees.
type sharedEvents struct {
	// retailBoost[d] is an afternoon load boost for Commercial sectors on
	// day d (popular shopping days: pre-Christmas, January sales).
	retailBoost []float64
	// weather[c][d] is a per-city interference bump (storms).
	weather [][]float64
	// towerOutage[towerID] lists outage day ranges.
	towerOutage map[int][][2]int
}

func buildSharedEvents(g *timegrid.Grid, rng *randx.RNG, topo *Topology) *sharedEvents {
	days := g.Days()
	ev := &sharedEvents{
		retailBoost: make([]float64, days),
		towerOutage: map[int][][2]int{},
	}
	for d := 0; d < days; d++ {
		date := g.TimeAt(d * 24)
		_, month, day := date.Date()
		// Pre-Christmas shopping (Dec 18-23), January sales start (Jan 7-9),
		// and the occasional promotional Saturday.
		switch {
		case month == 12 && day >= 18 && day <= 23:
			ev.retailBoost[d] = 0.8
		case month == 1 && day >= 7 && day <= 9:
			ev.retailBoost[d] = 0.7
		case timegrid.DayOfWeek(d) == 5 && rng.Bool(0.1):
			ev.retailBoost[d] = 0.5
		}
	}
	nCities := len(topo.CityX)
	ev.weather = make([][]float64, nCities)
	for c := 0; c < nCities; c++ {
		ev.weather[c] = make([]float64, days)
		d := 0
		for d < days {
			if rng.Bool(0.02) { // storm front arrives
				span := rng.IntInclusive(1, 3)
				amp := rng.Uniform(0.15, 0.45)
				for s := 0; s < span && d+s < days; s++ {
					ev.weather[c][d+s] = amp
				}
				d += span
				continue
			}
			d++
		}
	}
	// Rare whole-tower outages: every tower has a small chance of one 1-2
	// day outage in the window; all its sectors go hot together.
	for _, tw := range topo.Towers {
		if rng.Bool(0.04) {
			start := rng.IntN(days - 2)
			ev.towerOutage[tw.ID] = append(ev.towerOutage[tw.ID], [2]int{start, start + rng.IntInclusive(1, 2)})
		}
	}
	return ev
}

// classDiurnal returns the hour-of-day traffic shape for a land-use class,
// normalised to peak at 1.
func classDiurnal(class LandUse, hour int) float64 {
	h := float64(hour)
	switch class {
	case Residential:
		// Evening peak.
		return 0.25 + 0.75*math.Exp(-(h-20)*(h-20)/18)
	case Commercial:
		// Midday-to-evening plateau with an afternoon peak (Fig. 1B).
		return 0.15 + 0.85*math.Exp(-(h-17)*(h-17)/28)
	case Business:
		// Office hours.
		return 0.1 + 0.9*math.Exp(-(h-13)*(h-13)/20)
	case Industrial:
		return 0.2 + 0.6*math.Exp(-(h-11)*(h-11)/30)
	case Transport:
		// Twin commute peaks.
		am := math.Exp(-(h - 8) * (h - 8) / 6)
		pm := math.Exp(-(h - 18) * (h - 18) / 8)
		return 0.2 + 0.8*math.Max(am, pm)
	default: // Rural
		return 0.25 + 0.45*math.Exp(-(h-19)*(h-19)/40)
	}
}

// classWeekday returns the day-of-week traffic multiplier for a class
// (0 = Monday).
func classWeekday(class LandUse, dow int, holiday bool) float64 {
	weekend := dow >= 5
	switch class {
	case Business, Industrial:
		if holiday || weekend {
			return 0.45
		}
		return 1.0
	case Commercial:
		if dow == 5 { // Saturday shopping
			return 1.15
		}
		if dow == 6 || holiday {
			return 0.7
		}
		return 1.0
	case Residential:
		if weekend || holiday {
			return 1.1
		}
		return 1.0
	case Transport:
		if weekend || holiday {
			return 0.6
		}
		return 1.0
	default:
		return 1.0
	}
}

// emitSector fills one sector's KPI block (kRow, mh x NumKPIs row-major)
// and ground-truth hot row (hotRow, mh hours). Writing through row views
// rather than the full tensors lets the chunked Stream reuse the exact same
// emission path.
func emitSector(i int, topo *Topology, g *timegrid.Grid, sched *schedule,
	shared *sharedEvents, kRow []float64, hotRow []uint8, rng *randx.RNG) {
	sec := &topo.Sectors[i]
	mh := g.Hours()
	// Per-KPI AR(1) noise state.
	arState := make([]float64, NumKPIs)
	const arRho = 0.65
	outages := shared.towerOutage[sec.Tower]

	for j := 0; j < mh; j++ {
		d := timegrid.DayOfHour(j)
		hourOfDay := timegrid.HourOfDay(j)
		dow := timegrid.DayOfWeek(d)
		holiday := g.IsHoliday(d)

		// Latent traffic load in [0, ~1.3].
		load := sec.Busyness * classDiurnal(sec.Class, hourOfDay) * classWeekday(sec.Class, dow, holiday)
		if sec.Class == Commercial && shared.retailBoost[d] > 0 && hourOfDay >= 12 && hourOfDay <= 21 {
			load += shared.retailBoost[d] * sec.Busyness * 0.8
		}
		load += rng.Norm(0, 0.05)
		if load < 0 {
			load = 0
		}

		// Fault channel: city weather + tower outage.
		fault := 0.0
		if sec.City >= 0 {
			fault += shared.weather[sec.City][d] * 0.6
		}
		inOutage := false
		for _, o := range outages {
			if d >= o[0] && d < o[1] {
				inOutage = true
			}
		}
		if inOutage {
			fault += 0.9
		}

		// Hot drive from the schedule.
		hotAmp := 0.0
		if sched.hotDay[d] {
			inWindow := hourOfDay >= hotHoursStart && hourOfDay < hotHoursEnd
			nightAfter := hourOfDay >= hotHoursEnd && sched.hotNight[d]
			nightBefore := hourOfDay < hotHoursStart && d > 0 && sched.hotNight[d-1]
			if inWindow || nightAfter || nightBefore {
				hotAmp = rng.Uniform(0.88, 1.05)
			} else if rng.Bool(0.05) {
				hotAmp = rng.Uniform(0.5, 0.9) // stray bad hour outside window
			}
		} else if d > 0 && sched.hotDay[d-1] && hourOfDay < hotHoursStart && sched.hotNight[d-1] {
			hotAmp = rng.Uniform(0.88, 1.05) // night run-over into a cool day
		}
		if inOutage && hotAmp == 0 {
			hotAmp = rng.Uniform(0.85, 1.0) // outages are hot regardless of profile
		}
		if hotAmp > 0 {
			hotRow[j] = 1
		}

		// Precursor stress, shaped by the diurnal curve so ramps look like
		// organic growth rather than a level shift.
		stress := sched.stress[d] * (0.55 + 0.45*classDiurnal(sec.Class, hourOfDay))

		cause := sched.cause[d]
		if inOutage {
			cause = causeHardware
		}
		cell := kRow[j*NumKPIs : (j+1)*NumKPIs]
		for idx := range catalogue {
			kp := &catalogue[idx]
			arState[idx] = arRho*arState[idx] + rng.Norm(0, math.Sqrt(1-arRho*arRho))
			amp := hotAmp * causeEmphasis(cause, kp.Class)
			cell[idx] = kp.value(load, stress, fault, amp, arState[idx])
		}
	}
}

// causeEmphasis modulates how strongly a hot episode of a given cause
// degrades each KPI class: congestion episodes hit congestion /
// availability / accessibility hardest, hardware episodes hit availability
// and coverage, interference episodes hit coverage. The floor of 0.72
// ensures enough total score weight crosses threshold during hot hours to
// lift the daily score over the operator threshold.
func causeEmphasis(c causeKind, class KPIClass) float64 {
	const floor = 0.72
	boost := func(primary ...KPIClass) float64 {
		for _, p := range primary {
			if class == p {
				return 1.0
			}
		}
		return floor
	}
	switch c {
	case causeCongestion:
		return boost(Congestion, Availability, Accessibility)
	case causeHardware:
		return boost(Availability, Coverage, Retainability)
	case causeInterference:
		return boost(Coverage, Mobility)
	default:
		return 1.0
	}
}
