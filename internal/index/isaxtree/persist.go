package isaxtree

import (
	"fmt"

	"hydra/internal/persist"
	"hydra/internal/transform/sax"
)

// Encode serializes the tree — summary arrays and node structure — into w.
// Nodes are written in deterministic order (sorted root keys, child 0 before
// child 1), so identical trees always produce identical bytes. The flat
// in-memory summary arrays are written row by row, preserving the wire
// format of the per-series matrix sections.
func (t *Tree) Encode(w *persist.Writer) {
	w.Int(t.PAA.SeriesLen())
	w.Int(t.Segments)
	w.Int(t.LeafSize)
	n := t.NumSeries()
	words := make([][]uint8, n)
	paas := make([][]float64, n)
	for i := 0; i < n; i++ {
		words[i] = t.Word(i)
		paas[i] = t.PAARow(i)
	}
	w.U8Mat(words)
	w.F64Mat(paas)

	w.Int(len(t.roots))
	for i, n := range t.roots {
		w.Uvarint(t.rootKeys[i])
		encodeNode(w, n)
	}
}

func encodeNode(w *persist.Writer, n *Node) {
	w.Bool(n.IsLeaf)
	w.Int(n.Depth)
	w.U8s(n.Word.Symbols)
	w.U8s(n.Word.Bits)
	if n.IsLeaf {
		w.Ints(n.Members)
		return
	}
	w.Int(n.SplitSeg)
	encodeNode(w, n.Children[0])
	encodeNode(w, n.Children[1])
}

// DecodeTree reconstructs a tree serialized by Encode for a collection of
// numSeries series, validating every structural invariant a later query
// would rely on (array arities, member ranges, recursion depth), so a
// corrupt-but-checksummed snapshot fails here instead of panicking at query
// time. Node and leaf counts are recomputed during the walk; the leaf-order
// cache starts cold.
func DecodeTree(r *persist.Reader, numSeries int) (*Tree, error) {
	n := r.Int()
	segments := r.Int()
	leafSize := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || segments <= 0 || leafSize <= 0 {
		return nil, fmt.Errorf("isaxtree: invalid snapshot dimensions n=%d segments=%d leaf=%d", n, segments, leafSize)
	}
	t := New(n, segments, leafSize)
	segments = t.Segments // paa.New caps segments at the series length
	words := r.U8Mat()
	paas := r.F64Mat()
	if len(words) != numSeries || len(paas) != numSeries {
		return nil, fmt.Errorf("isaxtree: %d words / %d PAA vectors for %d series", len(words), len(paas), numSeries)
	}
	// Flatten the per-series rows into the contiguous summary arrays the
	// batched kernels stream — the arena-aware load path.
	t.Words = make([]uint8, numSeries*segments)
	t.PAAs = make([]float64, numSeries*segments)
	for i := range words {
		if len(words[i]) != segments || len(paas[i]) != segments {
			return nil, fmt.Errorf("isaxtree: summary row %d has %d/%d values, want %d",
				i, len(words[i]), len(paas[i]), segments)
		}
		copy(t.Word(i), words[i])
		copy(t.PAARow(i), paas[i])
	}
	rootCount := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A legitimate path splits one segment's cardinality by one bit per
	// level, so no root-to-leaf path exceeds segments×MaxBits splits.
	maxDepth := segments*sax.MaxBits + 2
	for i := 0; i < rootCount; i++ {
		key := r.Uvarint()
		node, err := decodeNode(r, t, numSeries, maxDepth)
		if err != nil {
			return nil, err
		}
		if _, dup := t.Root[key]; dup {
			return nil, fmt.Errorf("isaxtree: duplicate root key %d", key)
		}
		t.addRoot(key, node)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	t.orderRoots(0)
	return t, nil
}

func decodeNode(r *persist.Reader, t *Tree, numSeries, depthBudget int) (*Node, error) {
	if depthBudget <= 0 {
		return nil, fmt.Errorf("isaxtree: tree deeper than any legitimate split sequence")
	}
	n := &Node{
		IsLeaf: r.Bool(),
		Depth:  r.Int(),
	}
	n.Word.Symbols = r.U8s()
	n.Word.Bits = r.U8s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(n.Word.Symbols) != t.Segments || len(n.Word.Bits) != t.Segments {
		return nil, fmt.Errorf("isaxtree: node word has %d/%d symbols, want %d",
			len(n.Word.Symbols), len(n.Word.Bits), t.Segments)
	}
	for _, b := range n.Word.Bits {
		if b < 1 || b > sax.MaxBits {
			return nil, fmt.Errorf("isaxtree: word cardinality %d bits outside [1,%d]", b, sax.MaxBits)
		}
	}
	n.fillRegions(t.Quant)
	t.NumNodes++
	if n.IsLeaf {
		t.NumLeaves++
		n.Members = r.Ints()
		for _, id := range n.Members {
			if id < 0 || id >= numSeries {
				return nil, fmt.Errorf("isaxtree: leaf member %d out of range [0,%d)", id, numSeries)
			}
		}
		return n, r.Err()
	}
	n.SplitSeg = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n.SplitSeg < 0 || n.SplitSeg >= t.Segments {
		return nil, fmt.Errorf("isaxtree: split segment %d out of range", n.SplitSeg)
	}
	for b := 0; b < 2; b++ {
		child, err := decodeNode(r, t, numSeries, depthBudget-1)
		if err != nil {
			return nil, err
		}
		n.Children[b] = child
	}
	return n, nil
}
