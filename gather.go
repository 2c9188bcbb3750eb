package hydra

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/dataset"
)

// shardRange returns the [lo, hi) row range of the index-th of count
// contiguous partitions of an n-series collection — the same split
// convention the parallel scan uses for its per-worker shards, so a
// collection sharded across processes and one scanned by workers partition
// identically. index must be in [0, count).
func shardRange(n, index, count int) (lo, hi int) {
	return index * n / count, (index + 1) * n / count
}

// Shard returns the index-th of count contiguous partitions of the dataset
// as its own Dataset, plus the offset of its first series in the full
// collection. The view aliases the parent's backing arena — sharding a
// collection across engines (or serving processes) costs no copies.
//
// Engines opened over a shard answer with shard-local IDs in [0, shard
// length); adding the returned offset maps them back to positions in the
// full collection. The hydra-serve -shard flag and its coordinator mode
// wire exactly this.
func (d *Dataset) Shard(index, count int) (*Dataset, int, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, 0, fmt.Errorf("hydra: shard %d/%d out of range", index, count)
	}
	n := d.Len()
	lo, hi := shardRange(n, index, count)
	if lo >= hi {
		return nil, 0, fmt.Errorf("hydra: shard %d/%d of a %d-series collection is empty", index, count, n)
	}
	name := fmt.Sprintf("%s[%d/%d]", d.d.Name, index, count)
	l := d.SeriesLen()
	if flat := d.d.Flat(); flat != nil {
		return &Dataset{d: dataset.FromFlat(name, flat[lo*l:hi*l:hi*l], hi-lo, l)}, lo, nil
	}
	// Hand-assembled datasets have no arena; the shard shares the Series
	// views themselves.
	return &Dataset{d: &dataset.Dataset{Name: name, Series: d.d.Series[lo:hi:hi]}}, lo, nil
}

// Gather merges per-shard k-NN answers into one global top-k — the
// coordinator side of scatter-gather serving, built on the same
// deterministic (distance, then ascending ID) merge as the parallel scan.
// Three properties make it safe under degraded fan-outs:
//
//   - every Fold names its source shard and only the first fold per source
//     applies, so a hedged request that returns twice contributes once;
//   - duplicate series IDs across overlapping shards are deduplicated, so
//     replicated rows never appear twice in an answer;
//   - distances fold and return in true (square-rooted) form bit-exactly,
//     so a merge over healthy disjoint shards equals the single-engine
//     answer bit for bit.
//
// A Gather is safe for concurrent use; shard responses fold as they arrive
// in any order.
type Gather struct{ g *core.GatherSet }

// NewGather creates a gather merging toward a top-k answer (k >= 1).
func NewGather(k int) *Gather { return &Gather{g: core.NewGatherSet(k)} }

// Fold merges one shard's matches under the shard's name and reports
// whether the fold applied (false: this source already contributed — e.g.
// the losing copy of a hedged request).
func (g *Gather) Fold(source string, matches []Match) bool { return g.g.Fold(source, matches) }

// Folded reports whether the named source has already contributed.
func (g *Gather) Folded(source string) bool { return g.g.Folded(source) }

// Sources returns the names of every folded source, sorted.
func (g *Gather) Sources() []string { return g.g.Sources() }

// Results returns the merged top-k, sorted by ascending distance with ties
// by ascending ID — the same shape every Engine query returns.
func (g *Gather) Results() []Match { return g.g.Results() }
