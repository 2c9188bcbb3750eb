package dstree

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/persist"
)

// indexSection holds the DSTree structure: per-node segmentation, EAPCA
// synopses, and split rules. The raw leaf payloads live in the raw file the
// index reattaches to.
const indexSection = "dstree"

// maxDecodeDepth bounds decoder recursion so a crafted snapshot encoding an
// absurdly long node chain fails with an error instead of exhausting the
// stack; far above any tree real data produces.
const maxDecodeDepth = 1 << 16

// BuildOptions implements core.Persistable.
func (ix *Index) BuildOptions() core.Options { return ix.opts }

// EncodeIndex implements core.Persistable.
func (ix *Index) EncodeIndex(enc *persist.Encoder) error {
	if ix.c == nil {
		return fmt.Errorf("dstree: method not built")
	}
	w := enc.Section(indexSection)
	w.Bool(ix.hOnly)
	encodeDSNode(w, ix.root)
	return nil
}

func encodeDSNode(w *persist.Writer, nd *node) {
	w.Ints(nd.ends)
	w.F64s(nd.minMean)
	w.F64s(nd.maxMean)
	w.F64s(nd.minStd)
	w.F64s(nd.maxStd)
	w.Int(nd.count)
	w.Int(nd.depth)
	w.Bool(nd.isLeaf)
	if nd.isLeaf {
		w.Ints(nd.members)
		return
	}
	w.Int(nd.splitSeg)
	w.U8(uint8(nd.splitOn))
	w.F64(nd.splitVal)
	encodeDSNode(w, nd.children[0])
	encodeDSNode(w, nd.children[1])
}

// DecodeIndex implements core.Persistable.
func (ix *Index) DecodeIndex(dec *persist.Decoder, c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("dstree: already built")
	}
	r, err := dec.Section(indexSection)
	if err != nil {
		return err
	}
	hOnly := r.Bool()
	var numNodes, numLeaves int
	root, err := decodeDSNode(r, c.File.SeriesLen(), c.File.Len(), &numNodes, &numLeaves, maxDecodeDepth)
	if err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	ix.c = c
	ix.hOnly = hOnly
	ix.root = root
	ix.numNodes = numNodes
	ix.numLeaves = numLeaves
	ix.syn.Extend(c.File, 0, c.File.Len())
	return nil
}

func decodeDSNode(r *persist.Reader, seriesLen, numSeries int, numNodes, numLeaves *int, depthBudget int) (*node, error) {
	if depthBudget <= 0 {
		return nil, fmt.Errorf("dstree: tree deeper than %d levels", maxDecodeDepth)
	}
	nd := &node{ends: r.Ints()}
	minMean := r.F64s()
	maxMean := r.F64s()
	minStd := r.F64s()
	maxStd := r.F64s()
	nd.count = r.Int()
	nd.depth = r.Int()
	nd.isLeaf = r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	k := len(nd.ends)
	if k == 0 || len(minMean) != k || len(maxMean) != k || len(minStd) != k || len(maxStd) != k {
		return nil, fmt.Errorf("dstree: node synopsis arity mismatch (%d segments)", k)
	}
	// Repack the wire-format arrays into the node's contiguous synopsis
	// block, restoring the query-time memory layout of a built tree.
	nd.attachSynopsis(make([]float64, 4*k))
	copy(nd.minMean, minMean)
	copy(nd.maxMean, maxMean)
	copy(nd.minStd, minStd)
	copy(nd.maxStd, maxStd)
	prev := 0
	for _, end := range nd.ends {
		if end <= prev || end > seriesLen {
			return nil, fmt.Errorf("dstree: invalid segmentation %v for length %d", nd.ends, seriesLen)
		}
		prev = end
	}
	if prev != seriesLen {
		return nil, fmt.Errorf("dstree: segmentation %v does not cover length %d", nd.ends, seriesLen)
	}
	*numNodes++
	if nd.isLeaf {
		*numLeaves++
		nd.members = r.Ints()
		for _, id := range nd.members {
			if id < 0 || id >= numSeries {
				return nil, fmt.Errorf("dstree: leaf member %d out of range [0,%d)", id, numSeries)
			}
		}
		return nd, r.Err()
	}
	nd.splitSeg = r.Int()
	on := r.U8()
	nd.splitVal = r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if on > uint8(splitStd) {
		return nil, fmt.Errorf("dstree: unknown split kind %d", on)
	}
	nd.splitOn = splitKind(on)
	for b := 0; b < 2; b++ {
		child, err := decodeDSNode(r, seriesLen, numSeries, numNodes, numLeaves, depthBudget-1)
		if err != nil {
			return nil, err
		}
		nd.children[b] = child
	}
	if nd.splitSeg < 0 || nd.splitSeg >= len(nd.children[0].ends) {
		return nil, fmt.Errorf("dstree: split segment %d out of range", nd.splitSeg)
	}
	return nd, nil
}
