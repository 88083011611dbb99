package simnet

import (
	"math"

	"repro/internal/randx"
	"repro/internal/timegrid"
)

// Missing data follows the three mechanisms the paper describes (Sec. II-C):
//
//  1. isolated points K[i,j,k] (probe glitches),
//  2. whole indicator rows K[i,j,:] (collection-server congestion),
//  3. time ranges K[i,j:j+t,:] (site offline / backbone congestion),
//
// plus a small set of "bad" sectors given >50% missing weeks so the
// filtering rule of the paper has material to discard. The per-sector
// mechanisms are keyed by sector index and applied row-locally
// (injectSectorMissing); the bad-sector wipes consume a shared stream, so
// they are replayed once into an explicit plan (planBadWipes) that every
// sector's emission reads.

// injectSectorMissing applies the per-sector missing mechanisms to one
// sector's row block kRow (mh x f, row-major). Randomness is keyed by the
// sector index, so the result is independent of generation order.
func injectSectorMissing(kRow []float64, f, mh, sector int, cfg Config) {
	if cfg.MissingTarget <= 0 {
		return
	}
	nan := math.NaN()

	// Split the target mass: 30% points, 30% rows, 40% ranges.
	pointProb := cfg.MissingTarget * 0.30
	rowProb := cfg.MissingTarget * 0.30
	// Ranges: mean length ~8 hours; expected fraction = rate * meanLen.
	const meanRange = 8.0
	rangeRate := cfg.MissingTarget * 0.40 / meanRange

	srng := randx.DeriveIndexed(cfg.Seed, 0x7fb5d329, "missing", sector)
	for j := 0; j < mh; j++ {
		if srng.Bool(rowProb) {
			wipeHour(kRow, f, j)
			continue
		}
		if srng.Bool(rangeRate) {
			span := 1 + int(srng.Exp(meanRange-1))
			for s := 0; s < span && j+s < mh; s++ {
				wipeHour(kRow, f, j+s)
			}
			j += span - 1
			continue
		}
		for k := 0; k < f; k++ {
			if srng.Bool(pointProb) {
				kRow[j*f+k] = nan
			}
		}
	}
}

// planBadWipes draws the bad-sector week wipes into an explicit plan mapping
// sector index to the hour indices to wipe. The draws consume the shared
// stream in a fixed sequential order, so the plan is identical however the
// sectors are later emitted.
func planBadWipes(n, mh int, cfg Config, rng *randx.RNG) map[int][]int {
	bad := int(float64(n) * cfg.BadSectorFrac)
	if bad == 0 {
		return nil
	}
	plan := make(map[int][]int, bad)
	chosen := rng.SampleWithoutReplacement(n, bad)
	for _, i := range chosen {
		weeks := 1 + rng.IntN(3)
		for w := 0; w < weeks; w++ {
			week := rng.IntN(mh / timegrid.HoursPerWeek)
			start := week * timegrid.HoursPerWeek
			// Wipe ~70% of the week's hours entirely.
			for j := start; j < start+timegrid.HoursPerWeek; j++ {
				if rng.Bool(0.7) {
					plan[i] = append(plan[i], j)
				}
			}
		}
	}
	return plan
}

// wipeHours blanks the listed hour indices of one sector row block.
func wipeHours(kRow []float64, f int, hours []int) {
	for _, j := range hours {
		wipeHour(kRow, f, j)
	}
}

// wipeHour blanks every KPI of hour j in a sector row block.
func wipeHour(kRow []float64, f, j int) {
	nan := math.NaN()
	for k := 0; k < f; k++ {
		kRow[j*f+k] = nan
	}
}
