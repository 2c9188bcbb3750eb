package isaxtree

import (
	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/transform/sax"
)

// Walker is one query's view of the tree for core.BestFirst, shared by
// iSAX2+ and ADS-FULL: the query's PAA vector and iSAX word, and — when
// leaves are filtered per member — the query's (segment, symbol)
// contribution table, which turns a member's full-cardinality word into its
// lower bound in Segments lookups.
type Walker struct {
	t     *Tree
	qpaa  []float64
	qword []uint8
	table []float64 // nil: leaves are read whole
}

// Reset points w at query q, summarized into sc's buffers. With filter set,
// the leaves the walk reads are filtered per member; Roots fills the table
// that takes, so an ng query never pays for it.
func (w *Walker) Reset(t *Tree, q series.Series, sc *core.Scratch, filter bool) {
	w.t = t
	w.qpaa = t.PAA.ApplyInto(q, sc.Summary(t.Segments))
	w.qword = sc.Word(len(w.qpaa))
	for i, v := range w.qpaa {
		w.qword[i] = t.Quant.Symbol(v)
	}
	w.table = nil
	if filter {
		w.table = sc.Table(sax.TableLen(t.Segments))
	}
}

// Descend implements core.Tree: the leaf on the query word's own path.
func (w *Walker) Descend() (*Node, []int, bool) {
	n := w.t.ApproxLeaf(w.qword)
	if n == nil {
		return nil, nil, false
	}
	return n, n.Members, true
}

// Roots implements core.Tree: the root children, scored in key order (see
// Tree.Roots).
func (w *Walker) Roots(f *core.Frontier[*Node], qs *stats.QueryStats) {
	if w.table != nil {
		w.t.Quant.MinDistTable(w.qpaa, w.t.PAA.Widths(), w.table)
	}
	for _, n := range w.t.roots {
		w.push(n, f, qs)
	}
}

// Expand implements core.Tree.
func (w *Walker) Expand(n *Node, f *core.Frontier[*Node], qs *stats.QueryStats) bool {
	if n.IsLeaf {
		return false
	}
	for _, c := range n.Children {
		w.push(c, f, qs)
	}
	return true
}

func (w *Walker) push(n *Node, f *core.Frontier[*Node], qs *stats.QueryStats) {
	lb := w.t.MinDist(w.qpaa, n)
	qs.LBCalcs++
	f.Push(lb, n)
}

// Refine implements core.Tree.
func (w *Walker) Refine(n *Node, rf *core.Refiner, qs *stats.QueryStats) {
	if w.table == nil {
		rf.Leaf(n.Members, nil, qs)
		return
	}
	table, words, seg := w.table, w.t.Words, w.t.Segments
	rf.Leaf(n.Members, func(id int) float64 {
		return sax.MinDistFullCardTable(table, words[id*seg:(id+1)*seg])
	}, qs)
}
