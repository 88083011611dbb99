package featcache

import (
	"sort"

	"repro/internal/parallel"
)

// Grid describes the feature-matrix demand of one sweep grid: the (t, h, w)
// axes, the number of stacked training label days, and the extractor names
// in play. It mirrors forecast.SweepConfig without importing it, keeping
// the dependency arrow pointed at this package.
type Grid struct {
	Ts, Hs, Ws []int
	// TrainDays is how many label days each classifier fit stacks; every
	// training day d contributes a matrix build at end day t-h-d.
	TrainDays int
	// Extractors are the representation names participating in the sweep.
	Extractors []string
	// Binned lists, per extractor name, the window lengths whose stacked
	// training matrices the sweep will consume in quantized (hist) form.
	// Each (t, h) grid point then demands one Binned build at cutoff t-h —
	// the (t, h) anti-diagonals collapse exactly as the float blocks do.
	// Extractors appearing here must also appear in Extractors.
	Binned map[string][]int
}

// PlanBuild is one distinct matrix build plus its demand: how many grid
// points consume it.
type PlanBuild struct {
	Key  Key
	Uses int
}

// Plan is a compiled sweep grid: the set of distinct matrix builds, in
// descending demand order (ties broken by extractor, w, end so the order
// is deterministic).
type Plan struct {
	Builds []PlanBuild
	// Points is the number of (t, h, w) grid points the plan covers.
	Points int
}

// Compile enumerates the distinct training-block builds a sweep grid
// needs. Every (t, h, w) point demands TrainDays blocks at end days
// t-h-d, all with window w; points on one (t, h) anti-diagonal collapse
// to one build per extractor. Prediction matrices are not planned: each
// holds only the columns its fitted model splits on, unknown before the
// fit.
func Compile(g Grid) *Plan {
	trainDays := g.TrainDays
	if trainDays < 1 {
		trainDays = 1
	}
	type endW struct{ end, w int }
	uses := map[endW]int{}
	for _, w := range g.Ws {
		for _, t := range g.Ts {
			for _, h := range g.Hs {
				for d := 0; d < trainDays; d++ {
					uses[endW{t - h - d, w}]++
				}
			}
		}
	}
	var pairs []endW
	for p := range uses {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		pa, pb := pairs[a], pairs[b]
		if uses[pa] != uses[pb] {
			return uses[pa] > uses[pb]
		}
		if pa.w != pb.w {
			return pa.w < pb.w
		}
		return pa.end < pb.end
	})
	plan := &Plan{Points: len(g.Ts) * len(g.Hs) * len(g.Ws)}
	for _, ex := range g.Extractors {
		for _, p := range pairs {
			plan.Builds = append(plan.Builds, PlanBuild{
				Key:  Key{Extractor: ex, End: p.end, W: p.w},
				Uses: uses[p],
			})
		}
		plan.Builds = append(plan.Builds, compileBinned(g, ex, trainDays)...)
	}
	// Across extractors, keep the global order demand-major too.
	sort.SliceStable(plan.Builds, func(a, b int) bool {
		return plan.Builds[a].Uses > plan.Builds[b].Uses
	})
	return plan
}

// compileBinned enumerates one extractor's quantized training builds: one
// per distinct (cutoff t-h, w) over the windows the sweep consumes in hist
// form. Iteration follows the caller-supplied Extractors order and sorted
// (w, cutoff) within, so the plan stays deterministic regardless of the
// Binned map's iteration order.
func compileBinned(g Grid, ex string, trainDays int) []PlanBuild {
	ws := g.Binned[ex]
	if len(ws) == 0 {
		return nil
	}
	type cutW struct{ cutoff, w int }
	uses := map[cutW]int{}
	for _, w := range ws {
		for _, t := range g.Ts {
			for _, h := range g.Hs {
				uses[cutW{t - h, w}]++
			}
		}
	}
	var pairs []cutW
	for p := range uses {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		pa, pb := pairs[a], pairs[b]
		if uses[pa] != uses[pb] {
			return uses[pa] > uses[pb]
		}
		if pa.w != pb.w {
			return pa.w < pb.w
		}
		return pa.cutoff < pb.cutoff
	})
	builds := make([]PlanBuild, 0, len(pairs))
	for _, p := range pairs {
		builds = append(builds, PlanBuild{
			Key:  Key{Extractor: ex, End: p.cutoff, W: p.w, Binned: true, Days: trainDays},
			Uses: uses[p],
		})
	}
	return builds
}

// Warm executes the plan's builds through the shared worker pool, hottest
// keys first, greedily filling the byte budget (<= 0 means no limit): a
// build whose estimated size no longer fits is skipped — it would only be
// evicted again — but smaller colder builds after it may still be
// admitted. size estimates a key's matrix payload in bytes;
// fetch performs one cached build. Warming is best-effort — fetch errors
// are ignored here and surface later, in grid order, from the evaluation
// itself. Returns the number of builds executed.
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
