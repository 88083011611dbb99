package mltree

// This file compiles fitted learners against a compact feature space: the
// sorted, distinct features a learner actually splits on. A learner fitted
// on thousands of columns often reads a few hundred or fewer, so a caller
// that builds prediction rows holding only those columns (in ascending
// original order) feeds an engine whose NumFeatures is the compact count.
// The compiler maps every node's feature into the compact space and
// leaves the thresholds alone, so the engine descends exactly as it
// would on the full rows — same thresholds, same child at every node —
// and the scores are bit-identical.

// projection maps original feature indices onto the compact space.
type projection struct {
	cols  []int   // ascending original features; compact feature j is cols[j]
	index []int32 // original feature -> compact index (unused entries 0)
}

// newProjection builds the compact space of the features marked in used.
// A learner that never splits reads feature 0 alone, so the space is
// never empty.
func newProjection(used []bool) projection {
	p := projection{index: make([]int32, len(used))}
	for j, u := range used {
		if u {
			p.index[j] = int32(len(p.cols))
			p.cols = append(p.cols, j)
		}
	}
	if len(p.cols) == 0 {
		p.cols = []int{0}
	}
	return p
}

// markSplits sets used[j] for every feature j the tree splits on.
func (t *Tree) markSplits(used []bool) {
	for i := range t.nodes {
		if t.nodes[i].feature >= 0 {
			used[t.nodes[i].feature] = true
		}
	}
}

// FlattenProjected compiles the tree against the features it splits on.
// It returns the engine, whose NumFeatures is len(cols), and cols, the
// ascending original feature indices: a row for the engine holds original
// features cols[0], cols[1], ... . Scores equal Flatten's on the full rows
// bit for bit.
func (t *Tree) FlattenProjected() (*Flat, []int, error) {
	used := make([]bool, t.NumFeatures)
	t.markSplits(used)
	p := newProjection(used)
	fl, err := t.flatten(p.index, len(p.cols))
	return fl, p.cols, err
}

// FlattenProjected is Tree.FlattenProjected over the whole forest: the
// compact space is the union of every tree's split features.
func (fo *Forest) FlattenProjected() (*Flat, []int, error) {
	used := make([]bool, fo.NumFeatures)
	for _, t := range fo.Trees {
		t.markSplits(used)
	}
	p := newProjection(used)
	fl, err := fo.flatten(p.index, len(p.cols))
	return fl, p.cols, err
}

// FlattenProjected is Tree.FlattenProjected over every boosting stage.
func (g *GBT) FlattenProjected() (*Flat, []int, error) {
	used := make([]bool, g.NumFeatures)
	for _, t := range g.trees {
		t.markSplits(used)
	}
	p := newProjection(used)
	fl, err := g.flatten(p.index, len(p.cols))
	return fl, p.cols, err
}
