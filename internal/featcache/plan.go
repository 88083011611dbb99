package featcache

import (
	"slices"
	"sort"

	"repro/internal/parallel"
)

// Grid describes the training-matrix demand of one sweep grid: the
// (t, h, w) axes, the number of stacked training label days, and the
// extractor names in play. It mirrors forecast.SweepConfig without
// importing it, keeping the dependency arrow pointed at this package.
type Grid struct {
	Ts, Hs, Ws []int
	// TrainDays is how many label days each classifier fit stacks into its
	// training matrix.
	TrainDays int
	// Extractors are the representation names participating in the sweep.
	Extractors []string
	// Binned lists, per extractor name, the window lengths whose stacked
	// training matrices the sweep's fits read in quantized (hist) form;
	// every other (extractor, w) is read as floats. Extractors appearing
	// here must also appear in Extractors.
	Binned map[string][]int
}

// PlanBuild is one distinct matrix build plus its demand: how many grid
// points consume it.
type PlanBuild struct {
	Key  Key
	Uses int
}

// Plan is a compiled sweep grid: the set of distinct matrix builds, in
// descending demand order (ties broken by extractor order, w, end so the
// order is deterministic).
type Plan struct {
	Builds []PlanBuild
	// Points is the number of (t, h, w) grid points the plan covers.
	Points int
}

// Compile enumerates the distinct training builds a sweep grid needs: one
// stacked matrix per (extractor, cutoff t-h, w), quantized where Binned
// lists the window and float otherwise. Points on one (t, h)
// anti-diagonal share the cutoff, so they collapse to one build per
// extractor. Prediction matrices are not planned: each holds only the
// columns its fitted model splits on, unknown before the fit.
func Compile(g Grid) *Plan {
	days := max(g.TrainDays, 1)
	uses := map[Key]int{}
	order := map[string]int{}
	var keys []Key
	for i, ex := range g.Extractors {
		order[ex] = i
		for _, w := range g.Ws {
			binned := slices.Contains(g.Binned[ex], w)
			for _, t := range g.Ts {
				for _, h := range g.Hs {
					k := Key{Extractor: ex, End: t - h, W: w, Binned: binned, Days: days}
					if uses[k] == 0 {
						keys = append(keys, k)
					}
					uses[k]++
				}
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		switch {
		case uses[ka] != uses[kb]:
			return uses[ka] > uses[kb]
		case ka.Extractor != kb.Extractor:
			return order[ka.Extractor] < order[kb.Extractor]
		case ka.W != kb.W:
			return ka.W < kb.W
		}
		return ka.End < kb.End
	})
	plan := &Plan{Points: len(g.Ts) * len(g.Hs) * len(g.Ws), Builds: make([]PlanBuild, len(keys))}
	for i, k := range keys {
		plan.Builds[i] = PlanBuild{Key: k, Uses: uses[k]}
	}
	return plan
}

// Warm executes the plan's builds through the shared worker pool, hottest
// keys first, greedily filling the byte budget (<= 0 means no limit): a
// build whose estimated size no longer fits is skipped — it would only be
// evicted again — but smaller colder builds after it may still be
// admitted. size estimates a key's matrix payload in bytes and must not
// fall below the built Matrix's Bytes; fetch performs one cached build.
// Warming is best-effort — fetch errors are ignored here and surface
// later, in grid order, from the evaluation itself. Returns the number of
// builds executed.
func (p *Plan) Warm(workers int, budget int64, size func(Key) int64, fetch func(Key) error) int {
	var keys []Key
	var total int64
	for _, b := range p.Builds {
		sz := size(b.Key)
		if budget > 0 && total+sz > budget {
			continue
		}
		total += sz
		keys = append(keys, b.Key)
	}
	// fetch errors are deliberately swallowed (see doc comment), so the
	// pool's error aggregation is statically nil.
	_ = parallel.For(workers, len(keys), func(i int) error {
		_ = fetch(keys[i])
		return nil
	})
	return len(keys)
}
