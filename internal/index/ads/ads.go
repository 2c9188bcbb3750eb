// Package ads implements ADS+ (Zoumpatianos, Idreos & Palpanas), the
// adaptive data series index, with the SIMS exact query algorithm used
// throughout the paper's experiments.
//
// Index construction touches only the iSAX summaries — the raw data stays in
// the raw file, which is why ADS+ is by far the fastest method at indexing.
// SIMS answers an exact query in three steps:
//
//  1. an ng-approximate tree descent acquires an initial best-so-far (the
//     visited leaf is adaptively materialized on first touch: its members
//     are fetched from the raw file with random I/O, then cached);
//  2. lower bounds between the query PAA and *all* iSAX summaries are
//     computed against the in-memory summary array (pure CPU);
//  3. a skip-sequential pass over the raw file reads only the series whose
//     lower bound beats the best-so-far — every skip costs one seek, the
//     access pattern that dominates ADS+ on spinning disks (paper §5).
package ads

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hydra/internal/core"
	"hydra/internal/index/isaxtree"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/storage"
	"hydra/internal/transform/sax"
)

func init() {
	core.Register("ADS+", func(opts core.Options) core.Method { return New(opts) })
}

// Index is the ADS+ method.
type Index struct {
	opts core.Options
	c    *core.Collection
	tree *isaxtree.Tree
	// wordsT is the segment-major (transposed) copy of the tree's summary
	// array over the first m = len(wordsT)/Segments series: segment j's
	// max-cardinality symbols are contiguous at wordsT[j*m : (j+1)*m]. It is
	// what the batched SIMS lower-bound kernel streams (one load fetches a
	// segment's symbols for eight neighbouring series); the candidate-major
	// original stays in the tree for insertion, splitting and persistence.
	// tailT is the same for the series appended since, [m, Len): Insert
	// re-transposes only it, and folds it into wordsT once it passes
	// 1/tailFoldDiv of m — so a batch costs the tail, not the collection,
	// and the folds add up to a constant per appended series. A built or
	// loaded index has an empty tail. Both reuse their backing, so cap may
	// exceed len.
	wordsT, tailT []uint8
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
	// mu guards materialized — the only per-query mutable state of the
	// index, so concurrent queries against one built Index stay race-free.
	mu sync.Mutex
	// materialized marks adaptively loaded leaves (on-disk leaf caches).
	materialized map[*isaxtree.Node]bool
}

// chargeAdaptiveLeaf charges the I/O of visiting a leaf to the query's
// cursor under the adaptive materialization policy: one random fetch from
// the raw file per member on first touch (marking the leaf materialized),
// one leaf access afterwards.
func (ix *Index) chargeAdaptiveLeaf(leaf *isaxtree.Node, cur *storage.Cursor) {
	ix.mu.Lock()
	first := !ix.materialized[leaf]
	if first {
		ix.materialized[leaf] = true
	}
	ix.mu.Unlock()
	if first {
		for range leaf.Members {
			cur.Leaf(1)
		}
	} else {
		cur.Leaf(len(leaf.Members))
	}
}

// New creates an ADS+ index.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "ADS+" }

// Build implements core.Method: summaries only — no raw data is moved.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("ads: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("ads: empty collection")
	}
	ix.tree = isaxtree.New(c.File.SeriesLen(), ix.opts.Segments, ix.opts.LeafSize)
	ix.materialized = map[*isaxtree.Node]bool{}

	// One sequential read to compute summaries; the only thing written is
	// the (tiny) summary array: Segments bytes per series.
	c.File.ChargeFullScan()
	ix.tree.Summarize(c.File)
	ix.tree.InsertRange(0, c.File.Len())
	c.Counters.ChargeSeq(int64(c.File.Len()) * int64(ix.opts.Segments))
	ix.wordsT = make([]uint8, len(ix.tree.Words))
	simd.Transpose8(ix.tree.Words, ix.tree.Segments, ix.wordsT)
	return nil
}

// tailFoldDiv sets when Insert folds the transposed tail into the dense
// summary: when the tail holds more than 1/tailFoldDiv of the dense part. A
// batch re-transposes the tail (at most m/tailFoldDiv series) and a fold
// re-transposes everything once per m/tailFoldDiv appended series; 32
// balances the two for batches of a few series over a few ten thousand.
const tailFoldDiv = 32

// Insert implements core.Ingester: each appended series is summarized and
// placed in the tree, then the transposed summary of the appended tail alone
// is rebuilt for the batch — wordsT and tailT together must cover exactly
// File.Len() series for the step-2 batched kernel. When the tail outgrows
// its share it is folded: the whole summary is transposed into wordsT
// (reusing its backing, doubling it when full) and the tail starts empty
// again. Callers must exclude concurrent queries (the engine's ingest lock
// does).
func (ix *Index) Insert(ids []int) error {
	if ix.c == nil {
		return fmt.Errorf("ads: method not built")
	}
	for _, id := range ids {
		ix.tree.AppendSummary(ix.c.File, id)
		ix.tree.Insert(id)
	}
	// The summary write is the only I/O: Segments bytes per series, like
	// the build's summarization pass.
	ix.c.Counters.ChargeSeq(int64(len(ids)) * int64(ix.opts.Segments))
	words, seg := ix.tree.Words, ix.tree.Segments
	if dense := len(ix.wordsT); (len(words)-dense)*tailFoldDiv <= dense {
		ix.tailT = transposeInto(ix.tailT, words[dense:], seg)
	} else {
		ix.wordsT = transposeInto(ix.wordsT, words, seg)
		ix.tailT = ix.tailT[:0]
	}
	return nil
}

// transposeInto transposes the candidate-major words into dst's backing,
// which at least doubles when it is too small.
func transposeInto(dst, words []uint8, seg int) []uint8 {
	if cap(dst) < len(words) {
		dst = make([]uint8, len(words), max(len(words), 2*cap(dst)))
	}
	dst = dst[:len(words)]
	simd.Transpose8(words, seg, dst)
	return dst
}

// KNN implements core.Method (the SIMS algorithm). All per-query state
// comes from the index's scratch pool, and the summary-array bounds of step
// 2 go through the batched table kernel — the values, visit decisions and
// answers are bit-identical to the per-series formulation. The context is
// polled before each SIMS step and once per core.CancelBlock candidates
// during the step-3 skip-sequential pass.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	return ix.search(ctx, q, k, core.ApproxSpec{})
}

// KNNApprox implements core.ApproxSearcher: the full approximate mode
// lattice over the one SIMS pass KNN uses, so an exact spec answers
// bit-identically to KNN.
func (ix *Index) KNNApprox(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, stats.QueryStats{}, err
	}
	return ix.search(ctx, q, k, spec)
}

// search is the one SIMS pass behind every query mode. The spec's pruner
// owns all skip/stop decisions: an exact spec keeps the unrelaxed lb >=
// bound skip predicate (bit-identical answers), a δ-ε spec relaxes it by
// (1+ε)² and may stop the skip-sequential pass at the PAC radius or a
// budget, and ng mode is step 1 alone (the batch bounds of step 2 are never
// computed — first-leaf cost only). NodesVisited counts the descent leaf
// plus every step-3 candidate actually verified.
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("ads: method not built")
	}
	f := ix.c.File
	if len(q) != f.SeriesLen() {
		return nil, qs, fmt.Errorf("ads: query length %d, collection length %d", len(q), f.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	seg := ix.tree.Segments
	qpaa := ix.tree.PAA.ApplyInto(q, sc.Summary(seg))
	qword := sc.Word(seg)
	for i, v := range qpaa {
		qword[i] = ix.tree.Quant.Symbol(v)
	}
	ord := sc.Order(q)
	set := sc.KNN(k)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)
	ng := spec.Mode == core.ModeNG
	cur := f.Cursor()
	n := cur.Len()

	// Step 2 first (it depends only on the query): lower bounds against the
	// whole in-memory summary array, scored by the batched kernel against a
	// per-query (segment, symbol) contribution table.
	if err := core.Canceled(ctx); err != nil {
		return nil, qs, err
	}
	var lbs []float64
	if !ng {
		widths := ix.tree.PAA.Widths()
		table := sc.Table(sax.TableLen(seg))
		ix.tree.Quant.MinDistTable(qpaa, widths, table)
		lbs = sc.LB(n)
		dense := len(ix.wordsT) / seg
		sax.MinDistFullCardBatch(table, ix.wordsT, seg, lbs[:dense])
		if len(ix.tailT) > 0 {
			sax.MinDistFullCardBatch(table, ix.tailT, seg, lbs[dense:])
		}
		qs.LBCalcs += int64(n)
	}

	// Step 1: approximate answer from the query's own leaf; materialize it
	// adaptively (random fetches from the raw file on first touch only).
	// Visited members have their bound forced to +Inf, which excludes them
	// from step 3 exactly like the former visited set.
	if leaf := ix.tree.ApproxLeaf(qword); leaf != nil {
		ix.chargeAdaptiveLeaf(leaf, &cur)
		rf := core.NewRefiner(&cur, q, ord, set)
		rf.Members(leaf.Members, nil, &qs)
		if lbs != nil {
			for _, id := range leaf.Members {
				lbs[id] = math.Inf(1)
			}
		}
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			pr.Finish(&qs)
			qs.IO = cur.Flush()
			return set.Results(), qs, nil
		}
	}
	if ng {
		pr.Finish(&qs)
		qs.IO = cur.Flush()
		return set.Results(), qs, nil
	}

	// Step 3: skip-sequential scan over the raw file. The cursor charges a
	// seek whenever the read does not continue the previous one — exactly
	// the paper's "one random disk access corresponds to one skip". Step 1
	// charged leaf accesses only, so the cursor still stands at series 0.
	for i := 0; i < n; i++ {
		if i%core.CancelBlock == 0 {
			if err := core.Canceled(ctx); err != nil {
				qs.IO = cur.Flush()
				return nil, qs, err
			}
		}
		// Step 1's members carry bound +Inf and are skipped outright:
		// pr.Prune's strict comparison would let them through while the
		// set is still filling and its bound is +Inf too.
		if lb := lbs[i]; math.IsInf(lb, 1) || pr.Prune(lb, set.Bound()) {
			continue
		}
		raw := cur.Read(i)
		d := series.SquaredDistEAOrderedBlocked(q, raw, ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(i, d)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			break
		}
	}
	pr.Finish(&qs)
	qs.IO = cur.Flush()
	return set.Results(), qs, nil
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	ts := ix.tree.TreeStats(ix.c.File.SeriesBytes(), false)
	// The transposed summary copy the SIMS batch kernel streams.
	ts.MemBytes += int64(len(ix.wordsT) + len(ix.tailT))
	// Materialized leaf caches count toward the (adaptive) disk footprint.
	ix.mu.Lock()
	for n, ok := range ix.materialized {
		if ok {
			ts.DiskBytes += int64(len(n.Members)) * ix.c.File.SeriesBytes()
		}
	}
	ix.mu.Unlock()
	return ts
}

// LeafMembers implements core.LeafBounder.
func (ix *Index) LeafMembers() [][]int {
	leaves := ix.tree.Leaves()
	out := make([][]int, 0, len(leaves))
	for _, n := range leaves {
		if len(n.Members) > 0 {
			out = append(out, n.Members)
		}
	}
	return out
}

// LeafLB implements core.LeafBounder. Unlike iSAX2+, whose pruning bound is
// the leaf's (coarse-cardinality) word region, ADS+'s SIMS prunes against
// the in-memory full-cardinality summary of every series; the operative
// lower bound for a leaf is therefore the minimum of its members'
// full-cardinality bounds — which is why the paper measures ADS+'s TLB close
// to the VA+file's and well above the iSAX2+ tree bound (Fig. 8f).
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	leaves := ix.tree.Leaves()
	nonEmpty := make([]*isaxtree.Node, 0, len(leaves))
	for _, n := range leaves {
		if len(n.Members) > 0 {
			nonEmpty = append(nonEmpty, n)
		}
	}
	if leaf < 0 || leaf >= len(nonEmpty) {
		return math.NaN()
	}
	qpaa := ix.tree.PAA.Apply(q)
	widths := ix.tree.PAA.Widths()
	min := math.Inf(1)
	for _, id := range nonEmpty[leaf].Members {
		if lb := ix.tree.Quant.MinDistFullCard(qpaa, ix.tree.Word(id), widths); lb < min {
			min = lb
		}
	}
	return math.Sqrt(min)
}
