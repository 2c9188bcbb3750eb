package dstree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/transform/eapca"
)

// refCandidate is one scored split the way the naive reference builds it:
// both children's IDs materialized, the children's segmentation copied.
type refCandidate struct {
	ends     []int
	seg      int
	on       splitKind
	val      float64
	quality  float64
	leftIDs  []int
	rightIDs []int
}

// refEvaluate is evaluate as it was before the split scratch: the members'
// (mean, std) recomputed from their prefix sums for every candidate, the two
// sides collected as ID slices. It is the reference evaluate must match bit
// for bit. nil means the split cannot separate the members.
func refEvaluate(ends []int, seg int, on splitKind, members []int, prefixes []eapca.Prefix, evalEnds []int) *refCandidate {
	lo := 0
	if seg > 0 {
		lo = ends[seg-1]
	}
	hi := ends[seg]

	vals := make([]float64, len(members))
	min, max := math.Inf(1), math.Inf(-1)
	for i := range members {
		mean, std := prefixes[i].MeanStd(lo, hi)
		v := mean
		if on == splitStd {
			v = std
		}
		vals[i] = v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if !(max > min) {
		return nil
	}
	threshold := (min + max) / 2

	cand := &refCandidate{ends: append([]int{}, ends...), seg: seg, on: on, val: threshold}
	for i, id := range members {
		if vals[i] <= threshold {
			cand.leftIDs = append(cand.leftIDs, id)
		} else {
			cand.rightIDs = append(cand.rightIDs, id)
		}
	}
	if len(cand.leftIDs) == 0 || len(cand.rightIDs) == 0 {
		return nil
	}
	var q float64
	for _, side := range [][]int{cand.leftIDs, cand.rightIDs} {
		q += float64(len(side)) * refRangeQoS(evalEnds, side, prefixes, members)
	}
	cand.quality = q / float64(len(members))
	return cand
}

// refRangeQoS measures how loosely a segmentation summarizes the given
// members: Σ_seg w·((maxMean−minMean)² + (maxStd−minStd)² + maxStd²).
func refRangeQoS(ends []int, side []int, prefixes []eapca.Prefix, members []int) float64 {
	pos := make(map[int]int, len(members))
	for i, id := range members {
		pos[id] = i
	}
	var total float64
	lo := 0
	for _, hi := range ends {
		minM, maxM := math.Inf(1), math.Inf(-1)
		minS, maxS := math.Inf(1), math.Inf(-1)
		for _, id := range side {
			mean, std := prefixes[pos[id]].MeanStd(lo, hi)
			if mean < minM {
				minM = mean
			}
			if mean > maxM {
				maxM = mean
			}
			if std < minS {
				minS = std
			}
			if std > maxS {
				maxS = std
			}
		}
		w := float64(hi - lo)
		dm := maxM - minM
		ds := maxS - minS
		total += w * (dm*dm + ds*ds + maxS*maxS)
		lo = hi
	}
	return total
}

// refCandidates scores every candidate split of a leaf in ranking order:
// horizontal splits on each segment, then (unless hOnly) vertical splits on
// both halves of each segment at least two points wide.
func refCandidates(c *core.Collection, ends, members []int, hOnly bool) []*refCandidate {
	prefixes := make([]eapca.Prefix, len(members))
	for i, id := range members {
		prefixes[i] = eapca.NewPrefix(c.File.Peek(id))
	}
	evalEnds := refineAll(ends)
	var out []*refCandidate
	for s := range ends {
		out = append(out, refEvaluate(ends, s, splitMean, members, prefixes, evalEnds))
		out = append(out, refEvaluate(ends, s, splitStd, members, prefixes, evalEnds))
	}
	if hOnly {
		return out
	}
	for s := range ends {
		lo := 0
		if s > 0 {
			lo = ends[s-1]
		}
		hi := ends[s]
		if hi-lo < 2 {
			continue
		}
		refined := make([]int, 0, len(ends)+1)
		refined = append(refined, ends[:s]...)
		refined = append(refined, (lo+hi)/2)
		refined = append(refined, ends[s:]...)
		for _, sub := range []int{s, s + 1} {
			out = append(out, refEvaluate(refined, sub, splitMean, members, prefixes, evalEnds))
			out = append(out, refEvaluate(refined, sub, splitStd, members, prefixes, evalEnds))
		}
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkSplit splits a leaf holding members under segmentation ends and
// requires, candidate by candidate, what the reference computes: the same
// separability verdict, threshold and quality bits, sides and child
// segmentation; then the same winner, and children whose members and
// synopses carry the reference's bits.
func checkSplit(t *testing.T, c *core.Collection, ends, members []int, hOnly bool) {
	t.Helper()
	// A leaf size just under the member count lets split run once and keeps
	// the (strictly smaller) children from splitting again.
	ix := &Index{c: c, hOnly: hOnly, opts: core.Options{LeafSize: len(members) - 1}, numNodes: 1, numLeaves: 1}
	nd := newNode(ends, 0)
	nd.members = append([]int{}, members...)
	ix.root = nd

	ref := refCandidates(c, ends, members, hOnly)
	var best *refCandidate
	for _, r := range ref {
		if r != nil && (best == nil || r.quality < best.quality) {
			best = r
		}
	}

	sc := &ix.build
	basis := refineAll(ends)
	sc.load(c.File, members, basis)
	i := 0
	ix.candidates(nd, func(cand candidate, vals []float64) {
		if i >= len(ref) {
			t.Fatalf("more than the reference's %d candidates", len(ref))
		}
		want := ref[i]
		i++
		val, quality, ok := sc.evaluate(vals, basis)
		if ok != (want != nil) {
			t.Fatalf("candidate %d: separable %v, reference %v", i-1, ok, want != nil)
		}
		if !ok {
			return
		}
		if cand.seg != want.seg || cand.on != want.on || !slices.Equal(childEnds(ends, cand.vseg), want.ends) {
			t.Fatalf("candidate %d: splits segment %d of %v on %d, reference segment %d of %v on %d",
				i-1, cand.seg, childEnds(ends, cand.vseg), cand.on, want.seg, want.ends, want.on)
		}
		if math.Float64bits(val) != math.Float64bits(want.val) || math.Float64bits(quality) != math.Float64bits(want.quality) {
			t.Fatalf("candidate %d: threshold %v quality %v, reference %v %v", i-1, val, quality, want.val, want.quality)
		}
		var left, right []int
		for k, id := range members {
			if sc.side[k] {
				right = append(right, id)
			} else {
				left = append(left, id)
			}
		}
		if !slices.Equal(left, want.leftIDs) || !slices.Equal(right, want.rightIDs) {
			t.Fatalf("candidate %d: sides %v | %v, reference %v | %v", i-1, left, right, want.leftIDs, want.rightIDs)
		}
	})
	if i != len(ref) {
		t.Fatalf("%d candidates, reference has %d", i, len(ref))
	}

	ix.split(nd)
	if best == nil {
		if !nd.isLeaf || !slices.Equal(nd.members, members) {
			t.Fatalf("unsplittable leaf was changed")
		}
		return
	}
	if nd.isLeaf {
		t.Fatalf("leaf not split; reference splits segment %d of %v", best.seg, best.ends)
	}
	if nd.splitSeg != best.seg || nd.splitOn != best.on || math.Float64bits(nd.splitVal) != math.Float64bits(best.val) {
		t.Fatalf("winner (%d, %d, %v), reference (%d, %d, %v)", nd.splitSeg, nd.splitOn, nd.splitVal, best.seg, best.on, best.val)
	}
	for b, ids := range [][]int{best.leftIDs, best.rightIDs} {
		child := nd.children[b]
		want := newNode(best.ends, 1)
		for _, id := range ids {
			want.update(eapca.Compute(eapca.NewPrefix(c.File.Peek(id)), want.ends))
		}
		if !slices.Equal(child.ends, best.ends) || !slices.Equal(child.members, ids) || child.count != want.count {
			t.Fatalf("child %d: segmentation %v members %v, reference %v %v", b, child.ends, child.members, best.ends, ids)
		}
		if !bitsEqual(child.minMean, want.minMean) || !bitsEqual(child.maxMean, want.maxMean) ||
			!bitsEqual(child.minStd, want.minStd) || !bitsEqual(child.maxStd, want.maxStd) {
			t.Fatalf("child %d: synopsis differs from the reference's", b)
		}
	}
	if ix.numNodes != 3 || ix.numLeaves != 2 {
		t.Fatalf("after one split: %d nodes, %d leaves", ix.numNodes, ix.numLeaves)
	}
}

// randomEnds draws a segmentation of a length-n series with k segments;
// neighbouring cut points are allowed, so width-1 segments (which have no
// vertical candidate and a one-segment basis) occur.
func randomEnds(rng *rand.Rand, n, k int) []int {
	cuts := rng.Perm(n - 1)[:k-1]
	for i := range cuts {
		cuts[i]++
	}
	slices.Sort(cuts)
	return append(cuts, n)
}

// TestSplitMatchesReference is the differential oracle of the split path:
// scoring from the once-computed basis values with a side flag per member
// must decide exactly what recomputing everything per candidate decided.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))

	t.Run("random leaves", func(t *testing.T) {
		ds := dataset.RandomWalk(400, 64, 3)
		c := core.NewCollection(ds)
		for rep := 0; rep < 60; rep++ {
			members := rng.Perm(ds.Len())[:2+rng.Intn(40)]
			ends := randomEnds(rng, 64, 1+rng.Intn(12))
			checkSplit(t, c, ends, members, rep%4 == 3)
		}
	})

	t.Run("width-1 segments", func(t *testing.T) {
		ds := dataset.RandomWalk(60, 16, 4)
		c := core.NewCollection(ds)
		all := rng.Perm(ds.Len())
		every := make([]int, 16)
		for i := range every {
			every[i] = i + 1
		}
		checkSplit(t, c, every, all, false) // no vertical candidate at all
		checkSplit(t, c, []int{1, 2, 3, 8, 9, 16}, all, false)
	})

	// Hand-made collections for the degenerate leaves. Series are raw (not
	// Z-normalized), so segment means and stds hit exact ties and zeros.
	const l = 32
	flat := func(rows ...[]float32) *core.Collection {
		var backing []float32
		for _, r := range rows {
			backing = append(backing, r...)
		}
		return core.NewCollection(dataset.FromFlat("hand", backing, len(rows), l))
	}
	constant := func(v float32) []float32 {
		r := make([]float32, l)
		for i := range r {
			r[i] = v
		}
		return r
	}
	walk := func() []float32 {
		r := make([]float32, l)
		for i := 1; i < l; i++ {
			r[i] = r[i-1] + float32(rng.NormFloat64())
		}
		return r
	}
	ids := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	t.Run("duplicate series", func(t *testing.T) {
		a, b := walk(), walk()
		c := flat(a, b, a, a, b, a, b, b, a)
		checkSplit(t, c, []int{l}, ids(9), false)
		checkSplit(t, c, []int{8, 16, l}, ids(9), false)
	})

	t.Run("unsplittable leaf", func(t *testing.T) {
		a := walk()
		c := flat(a, a, a, a, a)
		checkSplit(t, c, []int{l}, ids(5), false)
		checkSplit(t, c, []int{4, 5, 20, l}, ids(5), true)
	})

	t.Run("constant series", func(t *testing.T) {
		// std 0 on every segment; zero means of both signs (a series of
		// negative zeros next to positive ones), equal means, and levels
		// only a mean split can tell apart.
		negZero := constant(float32(math.Copysign(0, -1)))
		c := flat(constant(0), negZero, constant(1), constant(1), constant(-2), negZero, constant(0), constant(3))
		checkSplit(t, c, []int{l}, ids(8), false)
		checkSplit(t, c, []int{1, 7, l}, ids(8), false)
		checkSplit(t, c, []int{16, l}, ids(8), true)
		// Only the zeros: nothing to separate.
		checkSplit(t, c, []int{l}, []int{0, 1, 5, 6}, false)
	})

	t.Run("mixed constant and varying", func(t *testing.T) {
		c := flat(constant(0), walk(), constant(0.5), walk(), walk(), constant(0.5), walk())
		checkSplit(t, c, []int{l}, ids(7), false)
		checkSplit(t, c, []int{3, 4, 12, l}, ids(7), false)
	})
}

// TestBuildMatchesReferenceTree replays a whole build against the reference
// split on every overflow: the tree the scratch-driven insert and split grow
// is, node for node, the tree the naive code grows.
func TestBuildMatchesReferenceTree(t *testing.T) {
	ds := dataset.RandomWalk(1500, 96, 9)
	ix, coll := build(t, ds, 16)

	// refNode mirrors node for the reference build.
	type refNode struct {
		ends     []int
		members  []int
		seg      int
		on       splitKind
		val      float64
		children [2]*refNode
	}
	var refSplit func(n *refNode)
	refSplit = func(n *refNode) {
		var best *refCandidate
		for _, r := range refCandidates(coll, n.ends, n.members, false) {
			if r != nil && (best == nil || r.quality < best.quality) {
				best = r
			}
		}
		if best == nil {
			return
		}
		n.seg, n.on, n.val = best.seg, best.on, best.val
		n.children[0] = &refNode{ends: best.ends, members: best.leftIDs}
		n.children[1] = &refNode{ends: best.ends, members: best.rightIDs}
		n.members = nil
		for _, ch := range n.children {
			if len(ch.members) > 16 {
				refSplit(ch)
			}
		}
	}
	root := &refNode{ends: []int{96}}
	for id := 0; id < ds.Len(); id++ {
		p := eapca.NewPrefix(ds.Series[id])
		n := root
		for n.children[0] != nil {
			lo := 0
			if n.seg > 0 {
				lo = n.children[0].ends[n.seg-1]
			}
			mean, std := p.MeanStd(lo, n.children[0].ends[n.seg])
			v := mean
			if n.on == splitStd {
				v = std
			}
			if v <= n.val {
				n = n.children[0]
			} else {
				n = n.children[1]
			}
		}
		n.members = append(n.members, id)
		if len(n.members) > 16 {
			refSplit(n)
		}
	}

	var same func(got *node, want *refNode)
	same = func(got *node, want *refNode) {
		if !slices.Equal(got.ends, want.ends) || got.isLeaf != (want.children[0] == nil) {
			t.Fatalf("node at depth %d: segmentation %v leaf %v, reference %v leaf %v",
				got.depth, got.ends, got.isLeaf, want.ends, want.children[0] == nil)
		}
		if got.isLeaf {
			if !slices.Equal(got.members, want.members) {
				t.Fatalf("leaf at depth %d: members %v, reference %v", got.depth, got.members, want.members)
			}
			return
		}
		if got.splitSeg != want.seg || got.splitOn != want.on || math.Float64bits(got.splitVal) != math.Float64bits(want.val) {
			t.Fatalf("node at depth %d: split (%d, %d, %v), reference (%d, %d, %v)",
				got.depth, got.splitSeg, got.splitOn, got.splitVal, want.seg, want.on, want.val)
		}
		same(got.children[0], want.children[0])
		same(got.children[1], want.children[1])
	}
	same(ix.root, root)
}
