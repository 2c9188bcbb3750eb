package core

import (
	"sort"
	"sync"
)

// GatherSet merges per-shard k-NN answers into one global top-k with
// provenance — the coordinator-side counterpart of the per-goroutine merge
// in ScanKNN. Three contracts distinguish it from a bare KNNSet:
//
//   - Fold-once per source: every fold names the shard it came from, and a
//     second fold under the same name is ignored. A hedged request whose
//     primary and hedge both return therefore contributes exactly once,
//     no matter which copy won.
//   - Duplicate-ID dedup: shards that overlap (replicated boundary rows, a
//     replica pair behind one name) may both report the same global series.
//     The first occurrence of an ID wins; in this system duplicates carry
//     the same distance (same series, same query, same kernel), so the
//     resulting top-k is the one a single engine over the union would
//     produce, with the deterministic (distance, ascending ID) tie order.
//   - Distances fold in true (square-rooted) form, as they travel on the
//     wire, and come back out the same way: squaring on entry and
//     square-rooting in Results round-trips exactly under IEEE-754
//     (sqrt(x·x) == |x| in round-to-nearest absent overflow), so a merged
//     answer over healthy shards is bit-identical to the single-engine
//     answer.
//
// All methods are safe for concurrent use; per-shard responses fold as they
// arrive, in any order — the (distance, ascending ID) selection makes the
// merged top-k order-independent.
type GatherSet struct {
	mu     sync.Mutex
	set    *KNNSet
	folded map[string]bool
	seen   map[int]bool
}

// NewGatherSet creates a gather for a top-k merge (k >= 1).
func NewGatherSet(k int) *GatherSet {
	if k < 1 {
		k = 1
	}
	return &GatherSet{
		set:    NewKNNSet(k),
		folded: map[string]bool{},
		seen:   map[int]bool{},
	}
}

// Fold merges one shard's answer (true distances, as returned by KNN or
// received on the wire) under the shard's name. It reports whether the fold
// was applied: false means this source already folded and the call was
// ignored — the hedge-dedup signal.
func (g *GatherSet) Fold(source string, matches []Match) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.folded[source] {
		return false
	}
	g.folded[source] = true
	// Stage the shard's candidates in their own heap, then fold it through
	// KNNSet.Merge — the same deterministic merge the parallel scan uses.
	o := NewKNNSet(g.set.k)
	for _, m := range matches {
		if g.seen[m.ID] {
			continue
		}
		g.seen[m.ID] = true
		o.Add(m.ID, m.Dist*m.Dist)
	}
	g.set.Merge(o)
	return true
}

// Folded reports whether the named source has already contributed.
func (g *GatherSet) Folded(source string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.folded[source]
}

// Sources returns the names of every folded source, sorted.
func (g *GatherSet) Sources() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.folded))
	for s := range g.folded {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Results returns the merged top-k sorted by ascending true distance, ties
// by ascending ID — the same shape and bit pattern every engine query
// returns.
func (g *GatherSet) Results() []Match {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.set.Results()
}
