// Package isaxtree implements the iSAX index tree shared by iSAX2+ and ADS+:
// a root whose children cover the 1-bit-per-segment iSAX words, below which
// nodes split binarily by promoting one segment to a higher cardinality (the
// iSAX 2.0 splitting policy: pick the segment whose refinement distributes
// the node's series most evenly). The two methods differ in what the leaves
// hold (materialized raw data for iSAX2+, summaries only for ADS+) and in
// their exact query algorithms: ADS+'s SIMS lives in its package, while
// iSAX2+ and ADS-FULL walk this tree through Walker.
package isaxtree

import (
	"cmp"
	"fmt"
	"slices"

	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/storage"
	"hydra/internal/transform/paa"
	"hydra/internal/transform/sax"
)

// Node is a tree node identified by an iSAX word.
type Node struct {
	Word     sax.Word
	IsLeaf   bool
	Members  []int
	SplitSeg int
	Children [2]*Node
	Depth    int

	// RegLo and RegHi cache the word's per-segment breakpoint regions
	// (±Inf at unbounded edges), computed once at node creation — a word
	// never changes after its node exists. They are the lo/hi arrays the
	// vectorized MinDist kernel streams, replacing per-query Region calls.
	RegLo, RegHi []float64
}

// fillRegions materializes the node's region cache from its word. Must be
// called whenever a Node is created (insertion, splitting, snapshot
// decoding); MinDist reads the cache unconditionally.
func (n *Node) fillRegions(q *sax.Quantizer) {
	seg := len(n.Word.Symbols)
	buf := make([]float64, 2*seg)
	n.RegLo, n.RegHi = buf[:seg:seg], buf[seg:]
	for i := 0; i < seg; i++ {
		n.RegLo[i], n.RegHi[i] = q.Region(n.Word.SymbolAt(i), n.Word.Bits[i])
	}
}

// Tree is the iSAX index structure over a collection's summaries.
type Tree struct {
	Quant    *sax.Quantizer
	PAA      *paa.Transform
	LeafSize int
	Segments int

	// Root finds a root child by key (RootKey); roots lists the same nodes in
	// ascending key order, parallel to rootKeys. Everything that walks the
	// root walks roots: map order differs from run to run, and the order root
	// children are scored in decides how tied bounds pop — so a budget or δ-ε
	// answer would not be a function of the query. addRoot appends to both
	// and the insert that called it restores the order before it returns
	// (orderRoots), so readers — excluded while a writer runs — never see
	// them out of order and never sort.
	Root     map[uint64]*Node
	rootKeys []uint64
	roots    []*Node
	// Words holds every series' symbols at maximum cardinality, back-to-back
	// with stride Segments (series i at [i*Segments, (i+1)*Segments)); PAAs
	// holds the PAA vectors in the same flat layout. ADS+ keeps these in
	// memory as its summary array; the batched lower-bound kernel
	// (sax.MinDistFullCardBatch) streams a segment-major transposed copy
	// of Words that ADS+ keeps beside it (simd.Transpose8 at build time
	// and again after every appended batch) —
	// passing this candidate-major array to the batch kernel computes
	// wrong bounds. Use Word/PAARow for per-series views.
	Words []uint8
	PAAs  []float64

	NumNodes  int
	NumLeaves int
	leafCache []*Node
}

// NumSeries returns the number of summarized series.
func (t *Tree) NumSeries() int {
	if t.Segments == 0 {
		return 0
	}
	return len(t.Words) / t.Segments
}

// Word returns series i's max-cardinality symbols (a view into the flat
// summary array; do not mutate).
func (t *Tree) Word(i int) []uint8 {
	return t.Words[i*t.Segments : (i+1)*t.Segments : (i+1)*t.Segments]
}

// PAARow returns series i's PAA vector (a view; do not mutate).
func (t *Tree) PAARow(i int) []float64 {
	return t.PAAs[i*t.Segments : (i+1)*t.Segments : (i+1)*t.Segments]
}

// New builds an empty tree for length-n series. The stored segment count is
// the PAA transform's actual one (paa.New caps it at the series length), so
// the flat summary stride always matches the rows the transform produces.
func New(n, segments, leafSize int) *Tree {
	p := paa.New(n, segments)
	return &Tree{
		Quant:    sax.NewQuantizer(),
		PAA:      p,
		LeafSize: leafSize,
		Segments: p.Segments(),
		Root:     map[uint64]*Node{},
	}
}

// Summarize computes and stores the PAA vector and iSAX symbols of every
// series into the flat summary arrays, reading the file once (uncharged:
// builders charge the pass at full-scan granularity).
func (t *Tree) Summarize(f *storage.SeriesFile) {
	n := f.Len()
	t.Words = make([]uint8, n*t.Segments)
	t.PAAs = make([]float64, n*t.Segments)
	for i := 0; i < n; i++ {
		p := t.PAA.ApplyInto(f.Peek(i), t.PAARow(i))
		w := t.Word(i)
		for j, v := range p {
			w[j] = t.Quant.Symbol(v)
		}
	}
}

// AppendSummary grows the flat summary arrays by one row for series id —
// which must be the next unsummarized position, NumSeries() — computing its
// PAA vector and iSAX symbols from the file. This is the incremental
// counterpart of Summarize for live ingestion; the append may reallocate
// the flat arrays, so callers must exclude concurrent queries (the engine's
// ingest lock does).
func (t *Tree) AppendSummary(f *storage.SeriesFile, id int) {
	if id != t.NumSeries() {
		panic(fmt.Sprintf("isaxtree: AppendSummary(%d) out of order, next is %d", id, t.NumSeries()))
	}
	t.Words = append(t.Words, make([]uint8, t.Segments)...)
	t.PAAs = append(t.PAAs, make([]float64, t.Segments)...)
	p := t.PAA.ApplyInto(f.Peek(id), t.PAARow(id))
	w := t.Word(id)
	for j, v := range p {
		w[j] = t.Quant.Symbol(v)
	}
}

// RootKey packs the top bit of each segment's symbol into a map key.
func (t *Tree) RootKey(word []uint8) uint64 {
	var key uint64
	for _, sym := range word {
		key = key<<1 | uint64(sym>>(sax.MaxBits-1))
	}
	return key
}

// Roots returns the root's children in ascending key order (a view; do not
// mutate). Inserting a series may add one, so callers exclude concurrent
// inserts like every other reader of the tree.
func (t *Tree) Roots() []*Node { return t.roots }

// addRoot registers n as the root child for key, which must be new. The
// caller restores the root order (orderRoots) before readers return.
func (t *Tree) addRoot(key uint64, n *Node) {
	t.Root[key] = n
	t.rootKeys = append(t.rootKeys, key)
	t.roots = append(t.roots, n)
}

// maxRootInsertions is how many new root children orderRoots moves into
// place one by one (a binary search and a shift each) before sorting the
// whole list once is cheaper.
const maxRootInsertions = 16

// orderRoots restores ascending key order after addRoot calls, given that
// the first sorted roots were in order before them. An append adds a root
// child now and then, so each is shifted into place; a bulk load adds
// thousands — shifting each cost a quarter of an ADS+ build — and sorts once.
func (t *Tree) orderRoots(sorted int) {
	switch added := len(t.roots) - sorted; {
	case added == 0:
	case added <= maxRootInsertions:
		for i := sorted; i < len(t.roots); i++ {
			key, n := t.rootKeys[i], t.roots[i]
			pos, _ := slices.BinarySearch(t.rootKeys[:i], key)
			copy(t.rootKeys[pos+1:i+1], t.rootKeys[pos:i])
			copy(t.roots[pos+1:i+1], t.roots[pos:i])
			t.rootKeys[pos], t.roots[pos] = key, n
		}
	case !slices.IsSorted(t.rootKeys): // a snapshot lists them in order
		type entry struct {
			key uint64
			n   *Node
		}
		es := make([]entry, len(t.roots))
		for i, n := range t.roots {
			es[i] = entry{t.rootKeys[i], n}
		}
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
		for i, e := range es {
			t.rootKeys[i], t.roots[i] = e.key, e.n
		}
	}
}

// Insert places series id into the tree, splitting overflowing leaves.
func (t *Tree) Insert(id int) { t.InsertRange(id, id+1) }

// InsertRange places series [lo, hi) into the tree, in id order — the bulk
// form of Insert.
func (t *Tree) InsertRange(lo, hi int) {
	sorted := len(t.roots)
	for id := lo; id < hi; id++ {
		t.insert(id)
	}
	t.orderRoots(sorted)
}

func (t *Tree) insert(id int) {
	word := t.Word(id)
	key := t.RootKey(word)
	n, ok := t.Root[key]
	if !ok {
		w := sax.NewWord(t.PAA.Segments(), 1)
		for i := range w.Symbols {
			w.Symbols[i] = word[i] >> (sax.MaxBits - 1) << (sax.MaxBits - 1)
		}
		n = &Node{Word: w, IsLeaf: true, Depth: 1}
		n.fillRegions(t.Quant)
		t.addRoot(key, n)
		t.NumNodes++
		t.NumLeaves++
	}
	for !n.IsLeaf {
		bits := n.Children[0].Word.Bits[n.SplitSeg]
		bit := word[n.SplitSeg] >> (sax.MaxBits - bits) & 1
		n = n.Children[bit]
	}
	n.Members = append(n.Members, id)
	t.leafCache = nil
	if len(n.Members) > t.LeafSize {
		t.split(n)
	}
}

// split promotes the segment whose next-bit refinement balances the members
// best; a node where no segment can discriminate stays an oversized leaf.
func (t *Tree) split(n *Node) {
	best, bestImbalance := -1, int(^uint(0)>>1)
	for seg := 0; seg < t.PAA.Segments(); seg++ {
		bits := n.Word.Bits[seg]
		if bits >= sax.MaxBits {
			continue
		}
		ones := 0
		for _, id := range n.Members {
			if t.Words[id*t.Segments+seg]>>(sax.MaxBits-bits-1)&1 == 1 {
				ones++
			}
		}
		imbalance := abs(2*ones - len(n.Members))
		// A split that sends everything to one side is useless.
		if ones == 0 || ones == len(n.Members) {
			continue
		}
		if imbalance < bestImbalance {
			best, bestImbalance = seg, imbalance
		}
	}
	if best < 0 {
		return // cannot discriminate further; oversized leaf allowed
	}

	n.IsLeaf = false
	n.SplitSeg = best
	bits := n.Word.Bits[best]
	prefix := n.Word.Symbols[best] >> (sax.MaxBits - bits)
	for b := uint8(0); b < 2; b++ {
		w := n.Word.Clone()
		w.Bits[best] = bits + 1
		w.Symbols[best] = (prefix<<1 | b) << (sax.MaxBits - bits - 1)
		n.Children[b] = &Node{Word: w, IsLeaf: true, Depth: n.Depth + 1}
		n.Children[b].fillRegions(t.Quant)
		t.NumNodes++
		t.NumLeaves++
	}
	t.NumLeaves-- // n is no longer a leaf

	members := n.Members
	n.Members = nil
	for _, id := range members {
		bit := t.Words[id*t.Segments+best] >> (sax.MaxBits - bits - 1) & 1
		c := n.Children[bit]
		c.Members = append(c.Members, id)
	}
	for _, c := range n.Children {
		if len(c.Members) > t.LeafSize {
			t.split(c)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ApproxLeaf descends the query's own iSAX path and returns the leaf, or nil
// when the path does not exist (then the ng-approximate step has no answer).
func (t *Tree) ApproxLeaf(word []uint8) *Node {
	n, ok := t.Root[t.RootKey(word)]
	if !ok {
		return nil
	}
	for !n.IsLeaf {
		bits := n.Children[0].Word.Bits[n.SplitSeg]
		bit := word[n.SplitSeg] >> (sax.MaxBits - bits) & 1
		n = n.Children[bit]
	}
	return n
}

// MinDist returns the squared lower-bounding distance between a query's PAA
// vector and node n: the width-weighted distance from the query PAA to the
// node's cached breakpoint regions, on the dispatched kernel layer.
func (t *Tree) MinDist(qpaa []float64, n *Node) float64 {
	return simd.WeightedIntervalDistSq(qpaa, n.RegLo, n.RegHi, t.PAA.Widths())
}

// Leaves returns all leaves in deterministic order (ascending root keys,
// children 0 before 1), cached between calls.
func (t *Tree) Leaves() []*Node {
	if t.leafCache != nil {
		return t.leafCache
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf {
			out = append(out, n)
			return
		}
		walk(n.Children[0])
		walk(n.Children[1])
	}
	for _, n := range t.roots {
		walk(n)
	}
	t.leafCache = out
	return out
}

// TreeStats reports the footprint measures of Figure 8. materialized says
// whether leaves hold raw data on disk (iSAX2+) or only summaries (ADS+).
func (t *Tree) TreeStats(seriesBytes int64, materialized bool) stats.TreeStats {
	ts := stats.TreeStats{TotalNodes: t.NumNodes, LeafNodes: t.NumLeaves}
	var walk func(n *Node)
	walk = func(n *Node) {
		// Word + node overhead + the RegLo/RegHi region cache (2 float64
		// per segment, added by the kernel-layer PR).
		ts.MemBytes += int64(2*t.Segments) + 48 + int64(16*t.Segments)
		if n.IsLeaf {
			ts.FillFactors = append(ts.FillFactors, float64(len(n.Members))/float64(t.LeafSize))
			ts.LeafDepths = append(ts.LeafDepths, n.Depth)
			ts.MemBytes += int64(8 * len(n.Members))
			if materialized {
				ts.DiskBytes += int64(len(n.Members)) * seriesBytes
			}
			ts.DiskBytes += int64(len(n.Members)) * int64(t.Segments) // summaries
			return
		}
		walk(n.Children[0])
		walk(n.Children[1])
	}
	for _, n := range t.roots {
		walk(n)
	}
	// The full summary array kept in memory (ADS+'s SAX cache; iSAX2+ holds
	// it during bulk loading). Words is flat: its length is already the
	// total symbol count.
	ts.MemBytes += int64(len(t.Words))
	return ts
}

// Validate checks structural invariants: every series in exactly one leaf,
// words consistent with leaf regions.
func (t *Tree) Validate() error {
	seen := make([]bool, t.NumSeries())
	for _, leaf := range t.Leaves() {
		for _, id := range leaf.Members {
			if seen[id] {
				return fmt.Errorf("isaxtree: series %d appears in multiple leaves", id)
			}
			seen[id] = true
			if !leaf.Word.Matches(t.Word(id)) {
				return fmt.Errorf("isaxtree: series %d does not match its leaf word", id)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("isaxtree: series %d missing from tree", id)
		}
	}
	return nil
}
