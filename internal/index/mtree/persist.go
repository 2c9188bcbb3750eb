package mtree

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/persist"
)

// indexSection holds the M-tree structure: routing objects, covering radii
// and parent distances. The objects themselves are series IDs into the
// collection the index reattaches to (the M-tree is memory-resident).
const indexSection = "mtree"

// maxDecodeDepth bounds decoder recursion so a crafted snapshot encoding an
// absurdly long node chain fails with an error instead of exhausting the
// stack; far above any tree real data produces.
const maxDecodeDepth = 1 << 16

// BuildOptions implements core.Persistable.
func (ix *Index) BuildOptions() core.Options { return ix.opts }

// EncodeIndex implements core.Persistable.
func (ix *Index) EncodeIndex(enc *persist.Encoder) error {
	if ix.c == nil {
		return fmt.Errorf("mtree: method not built")
	}
	w := enc.Section(indexSection)
	w.Int(ix.cap)
	w.Varint(ix.distCalcsBuild)
	encodeMNode(w, ix.root)
	return nil
}

func encodeMNode(w *persist.Writer, n *node) {
	w.Bool(n.leaf)
	w.Int(n.depth)
	w.Int(n.routingObj)
	w.Int(len(n.entries))
	for _, e := range n.entries {
		w.Int(e.id)
		w.F64(e.radius)
		w.F64(e.distToParent)
		w.Bool(e.child != nil)
		if e.child != nil {
			encodeMNode(w, e.child)
		}
	}
}

// DecodeIndex implements core.Persistable.
func (ix *Index) DecodeIndex(dec *persist.Decoder, c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("mtree: already built")
	}
	r, err := dec.Section(indexSection)
	if err != nil {
		return err
	}
	capacity := r.Int()
	distCalcs := r.Varint()
	root, err := decodeMNode(r, c.File.Len(), maxDecodeDepth)
	if err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if capacity < 2 {
		return fmt.Errorf("mtree: invalid node capacity %d", capacity)
	}
	ix.c = c
	ix.cap = capacity
	ix.distCalcsBuild = distCalcs
	ix.root = root
	ix.syn.Extend(c.File, 0, c.File.Len())
	return nil
}

func decodeMNode(r *persist.Reader, numSeries, depthBudget int) (*node, error) {
	if depthBudget <= 0 {
		return nil, fmt.Errorf("mtree: tree deeper than %d levels", maxDecodeDepth)
	}
	n := &node{
		leaf:       r.Bool(),
		depth:      r.Int(),
		routingObj: r.Int(),
	}
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count < 0 || count > numSeries {
		return nil, fmt.Errorf("mtree: node with %d entries", count)
	}
	n.entries = make([]entry, count)
	for i := range n.entries {
		e := &n.entries[i]
		e.id = r.Int()
		e.radius = r.F64()
		e.distToParent = r.F64()
		hasChild := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if e.id < 0 || e.id >= numSeries {
			return nil, fmt.Errorf("mtree: entry object %d out of range [0,%d)", e.id, numSeries)
		}
		if hasChild == n.leaf {
			return nil, fmt.Errorf("mtree: leaf/child mismatch at entry %d", i)
		}
		if hasChild {
			child, err := decodeMNode(r, numSeries, depthBudget-1)
			if err != nil {
				return nil, err
			}
			e.child = child
		}
	}
	return n, nil
}
