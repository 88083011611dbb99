package scenario

import (
	"fmt"
	"math"

	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/timegrid"
)

// cat is the shared KPI catalogue; overlays perturb emitted values toward
// each indicator's degraded level using the same coupling coefficients the
// generator emits with.
var cat = simnet.Catalogue()

// hotLabelThreshold is the surge intensity at which an overlay declares an
// hour hot: the generator's own hot amplitudes live in [0.85, 1.05] and its
// sub-hot strays in [0.5, 0.9], so 0.55 separates "driven hot" from noise.
const hotLabelThreshold = 0.55

// nudgeHour pushes every KPI of hour j toward its degraded level by amp
// scaled per-KPI by weight: v += (Bad - Base) * weight * amp, clamped to
// the indicator's physical range. Negative amplitudes relax toward healthy.
// Missing cells stay missing.
func nudgeHour(blk *SectorBlock, j int, amp float64, weight func(*simnet.KPI) float64) {
	for f := range cat {
		kp := &cat[f]
		w := weight(kp)
		if w == 0 {
			continue
		}
		v := blk.At(j, f)
		if math.IsNaN(v) {
			continue
		}
		v += (kp.Bad - kp.Base) * w * amp
		if v < kp.Min {
			v = kp.Min
		}
		if v > kp.Max {
			v = kp.Max
		}
		blk.Set(j, f, v)
	}
}

// FlashCrowd models stadium/parade events: localized multi-sector load
// spikes with Gaussian spatial decay around an epicentre. Sectors inside
// the decay radius see load- and hot-coupled KPIs surge for the event
// hours; where the effective surge crosses hotLabelThreshold the hour is
// marked hot in the ground truth.
type FlashCrowd struct {
	// Events is the number of crowd events drawn across the window.
	Events int
	// RadiusKM is the spatial decay scale (Gaussian sigma).
	RadiusKM float64
	// Peak is the surge intensity at the epicentre (~1 drives a sector as
	// hot as the generator's own hot hours).
	Peak float64

	events []crowdEvent
}

type crowdEvent struct {
	x, y       float64
	start, end int // hour indices, [start, end)
}

// Name implements Overlay.
func (o *FlashCrowd) Name() string { return "flash-crowd" }

// LabelEffect implements Overlay.
func (o *FlashCrowd) LabelEffect() string {
	return fmt.Sprintf("event hours with surge >= %.2f (epicentre peak decayed by distance) are marked hot", hotLabelThreshold)
}

// Prepare draws the epicentres and event windows.
func (o *FlashCrowd) Prepare(env *Env, rng *randx.RNG) error {
	if o.Events <= 0 || o.RadiusKM <= 0 {
		return fmt.Errorf("flash-crowd: need positive Events and RadiusKM")
	}
	days := env.Grid.Days()
	if days < 10 {
		return fmt.Errorf("flash-crowd: window too short (%d days)", days)
	}
	mh := env.Grid.Hours()
	o.events = o.events[:0]
	for e := 0; e < o.Events; e++ {
		c := rng.IntN(len(env.Topo.CityX))
		x := env.Topo.CityX[c] + rng.Norm(0, 1.5)
		y := env.Topo.CityY[c] + rng.Norm(0, 1.5)
		day := rng.IntInclusive(7, days-2)
		start := day*timegrid.HoursPerDay + rng.IntInclusive(15, 19)
		end := start + rng.IntInclusive(4, 8)
		if end > mh {
			end = mh
		}
		o.events = append(o.events, crowdEvent{x: x, y: y, start: start, end: end})
	}
	return nil
}

// ApplySector surges the sector by each event's distance-decayed peak.
func (o *FlashCrowd) ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG) {
	sec := &env.Topo.Sectors[i]
	for _, ev := range o.events {
		d2 := (sec.X-ev.x)*(sec.X-ev.x) + (sec.Y-ev.y)*(sec.Y-ev.y)
		decay := math.Exp(-d2 / (2 * o.RadiusKM * o.RadiusKM))
		if decay < 0.03 {
			continue
		}
		amp := o.Peak * decay * rng.Uniform(0.85, 1.1)
		if amp < 0.05 {
			continue
		}
		for j := ev.start; j < ev.end; j++ {
			nudgeHour(blk, j, amp, func(kp *simnet.KPI) float64 {
				return 0.7*kp.LoadCoef + 0.5*kp.HotCoef
			})
			if amp >= hotLabelThreshold {
				blk.Hot[j] = 1
			}
		}
	}
}

// Outage models sector outage plus repair: for a random fraction of
// sectors, KPIs drop to degenerate values (availability pegged at its
// degraded level, traffic-coupled indicators collapsing to their floor —
// no traffic flows through a dead sector) for the outage span, then recover
// along a linear repair ramp.
type Outage struct {
	// Frac is the per-sector probability of suffering one outage.
	Frac float64
	// MeanHours is the mean outage duration.
	MeanHours float64
	// RepairHours is the length of the linear recovery ramp.
	RepairHours int
}

// Name implements Overlay.
func (o *Outage) Name() string { return "outage" }

// LabelEffect implements Overlay.
func (o *Outage) LabelEffect() string {
	return "outage hours are marked hot (outages are hot regardless of profile); the repair ramp adds no labels"
}

// Prepare implements Overlay; outages have no shared state — affected
// sectors are decided per sector so the choice is order-independent.
func (o *Outage) Prepare(env *Env, rng *randx.RNG) error {
	if o.Frac < 0 || o.Frac > 1 || o.MeanHours <= 0 || o.RepairHours < 0 {
		return fmt.Errorf("outage: bad parameters %+v", *o)
	}
	return nil
}

// ApplySector decides from the sector's own stream whether, when and for
// how long the sector goes dark.
func (o *Outage) ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG) {
	if !rng.Bool(o.Frac) {
		return
	}
	mh := blk.T
	span := 4 + int(rng.Exp(o.MeanHours-4))
	if span > mh/2 {
		span = mh / 2
	}
	lead := mh - span - o.RepairHours
	if lead <= 1 {
		return
	}
	start := rng.IntN(lead)
	for j := start; j < start+span; j++ {
		for f := range cat {
			kp := &cat[f]
			if math.IsNaN(blk.At(j, f)) {
				continue
			}
			switch {
			case kp.Class == simnet.Availability || kp.FaultCoef >= 0.6:
				blk.Set(j, f, kp.Bad)
			case kp.LoadCoef >= 0.6:
				blk.Set(j, f, kp.Min)
			default:
				v := blk.At(j, f) + (kp.Bad-kp.Base)*0.9*kp.FaultCoef
				if v > kp.Max {
					v = kp.Max
				}
				blk.Set(j, f, v)
			}
		}
		blk.Hot[j] = 1
	}
	for r := 0; r < o.RepairHours; r++ {
		j := start + span + r
		if j >= mh {
			break
		}
		frac := 1 - float64(r+1)/float64(o.RepairHours+1)
		nudgeHour(blk, j, 0.9*frac, func(kp *simnet.KPI) float64 { return kp.FaultCoef })
	}
}

// MissingStorm models correlated NaN bursts: country-wide collection
// outages during shared storm windows sweep a large fraction of sectors at
// once, extending the generator's independent per-sector missing
// mechanisms with the correlated failure mode real collection pipelines
// exhibit.
type MissingStorm struct {
	// Storms is the number of storm windows drawn across the window.
	Storms int
	// MeanHours is the mean storm duration beyond the 6-hour floor.
	MeanHours float64
	// SectorProb is the probability a given sector is swept by a given
	// storm.
	SectorProb float64

	windows [][2]int
}

// Name implements Overlay.
func (o *MissingStorm) Name() string { return "missing-storm" }

// LabelEffect implements Overlay.
func (o *MissingStorm) LabelEffect() string {
	return "none: ground truth is unchanged; observations inside storm windows go missing"
}

// Prepare draws the shared storm windows.
func (o *MissingStorm) Prepare(env *Env, rng *randx.RNG) error {
	if o.Storms <= 0 || o.SectorProb < 0 || o.SectorProb > 1 {
		return fmt.Errorf("missing-storm: bad parameters %+v", *o)
	}
	days := env.Grid.Days()
	mh := env.Grid.Hours()
	o.windows = o.windows[:0]
	for s := 0; s < o.Storms; s++ {
		day := rng.IntInclusive(3, days-2)
		start := day*timegrid.HoursPerDay + rng.IntN(timegrid.HoursPerDay)
		span := 6 + int(rng.Exp(o.MeanHours))
		end := start + span
		if end > mh {
			end = mh
		}
		o.windows = append(o.windows, [2]int{start, end})
	}
	return nil
}

// ApplySector wipes the sector's rows inside each storm window it is swept
// by.
func (o *MissingStorm) ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG) {
	nan := math.NaN()
	for _, w := range o.windows {
		if !rng.Bool(o.SectorProb) {
			continue
		}
		for j := w[0]; j < w[1]; j++ {
			if !rng.Bool(0.92) {
				continue // collection limps along for a few rows
			}
			for f := 0; f < blk.F; f++ {
				blk.Set(j, f, nan)
			}
		}
	}
}

// SeasonalDrift models a slow baseline ramp: subscriber growth or a
// seasonal usage shift lifts load pressure linearly across the window, so
// late-window data is systematically hotter-looking than anything the
// training window saw.
type SeasonalDrift struct {
	// Amp is the fractional load-pressure lift reached at the window end.
	Amp float64
}

// Name implements Overlay.
func (o *SeasonalDrift) Name() string { return "seasonal-drift" }

// LabelEffect implements Overlay.
func (o *SeasonalDrift) LabelEffect() string {
	return "none directly: the drifting baseline changes labels only where the perturbed KPIs cross the score threshold"
}

// Prepare implements Overlay.
func (o *SeasonalDrift) Prepare(env *Env, rng *randx.RNG) error {
	if o.Amp < 0 {
		return fmt.Errorf("seasonal-drift: negative amplitude %v", o.Amp)
	}
	return nil
}

// ApplySector lifts the sector's load-coupled KPIs along the ramp, with a
// per-sector growth-rate jitter.
func (o *SeasonalDrift) ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG) {
	jitter := rng.Uniform(0.8, 1.2)
	scale := o.Amp * jitter / float64(blk.T-1)
	for j := 0; j < blk.T; j++ {
		nudgeHour(blk, j, scale*float64(j), func(kp *simnet.KPI) float64 {
			return 0.7*kp.LoadCoef + 0.3*kp.StressCoef
		})
	}
}

// demandShape is the normalised diurnal spectrum-demand curve (cf.
// SNIPPETS.md snippet 1): quiet nights, a morning ramp, and an evening peak
// at hour 20.
var demandShape = func() [timegrid.HoursPerDay]float64 {
	var d [timegrid.HoursPerDay]float64
	for h := range d {
		x := float64(h)
		night := 0.12
		morning := 0.45 * math.Exp(-(x-9)*(x-9)/18)
		evening := 0.88 * math.Exp(-(x-20)*(x-20)/14)
		d[h] = night + math.Max(morning, evening)
	}
	return d
}()

// LoadShift models a time-of-day demand displacement: for a fraction of
// sectors the diurnal demand peak moves by ShiftHours (work-from-home
// weeks, daylight-time anomalies, tariff changes), so load-coupled KPIs
// rise where demand lands and relax where it left.
type LoadShift struct {
	// ShiftHours displaces the diurnal demand curve (positive = later).
	ShiftHours int
	// Frac is the fraction of sectors affected.
	Frac float64
	// Amp scales the redistribution intensity.
	Amp float64
}

// Name implements Overlay.
func (o *LoadShift) Name() string { return "load-shift" }

// LabelEffect implements Overlay.
func (o *LoadShift) LabelEffect() string {
	return "none: demand is redistributed across the day without adding hot drive"
}

// Prepare implements Overlay.
func (o *LoadShift) Prepare(env *Env, rng *randx.RNG) error {
	if o.Frac < 0 || o.Frac > 1 || o.Amp < 0 {
		return fmt.Errorf("load-shift: bad parameters %+v", *o)
	}
	return nil
}

// ApplySector redistributes the sector's diurnal load by the shifted
// demand delta.
func (o *LoadShift) ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG) {
	if !rng.Bool(o.Frac) {
		return
	}
	jitter := rng.Uniform(0.9, 1.1)
	shift := ((o.ShiftHours % timegrid.HoursPerDay) + timegrid.HoursPerDay) % timegrid.HoursPerDay
	for j := 0; j < blk.T; j++ {
		h := timegrid.HourOfDay(j)
		delta := demandShape[(h-shift+timegrid.HoursPerDay)%timegrid.HoursPerDay] - demandShape[h]
		if delta == 0 {
			continue
		}
		nudgeHour(blk, j, o.Amp*jitter*delta, func(kp *simnet.KPI) float64 { return kp.LoadCoef })
	}
}
