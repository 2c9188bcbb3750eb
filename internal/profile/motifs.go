package profile

import (
	"math"
	"sort"
)

// Motif is one motif pair: the two closest non-trivially-matching windows
// that survive exclusion against previously selected motifs.
type Motif struct {
	// A and B are the window offsets of the pair, A < B.
	A, B int
	// Dist is the Z-normalized Euclidean distance between the two windows.
	Dist float64
}

// Discord is one discord: a window anomalously far from every non-trivial
// neighbor.
type Discord struct {
	// Index is the window offset.
	Index int
	// Dist is the distance from the window to its nearest non-trivial
	// neighbor — large means anomalous.
	Dist float64
}

// Motifs extracts up to k motif pairs from the profile in ascending
// distance order. The i-th pair is the closest pair whose endpoints both
// lie more than the exclusion zone away from every endpoint of the i−1
// already-selected pairs, so successive motifs describe distinct shapes
// rather than shifted copies of the first. Selection is deterministic:
// candidates order by (distance, window offset).
func (p *Profile) Motifs(k int) []Motif {
	if k <= 0 {
		return nil
	}
	k = min(k, len(p.Dist)) // a request-sized k allocates no more than the profile holds
	order := p.byDistance(false)
	motifs := make([]Motif, 0, k)
	taken := make([]int, 0, 2*k)
	for _, i := range order {
		if len(motifs) == k {
			break
		}
		j := p.Neighbor[i]
		if j < 0 || math.IsInf(p.Dist[i], 1) {
			break // ascending order: nothing finite remains
		}
		a, b := i, j
		if b < a {
			a, b = b, a
		}
		if p.excluded(a, taken) || p.excluded(b, taken) {
			continue
		}
		motifs = append(motifs, Motif{A: a, B: b, Dist: p.Dist[i]})
		taken = append(taken, a, b)
	}
	return motifs
}

// Discords extracts up to k discords from the profile in descending
// distance order, skipping windows within the exclusion zone of an
// already-selected discord and windows with no finite neighbor distance
// (which are unmatchable, not anomalous). Selection is deterministic:
// candidates order by (distance, window offset).
func (p *Profile) Discords(k int) []Discord {
	if k <= 0 {
		return nil
	}
	k = min(k, len(p.Dist))
	order := p.byDistance(true)
	discords := make([]Discord, 0, k)
	taken := make([]int, 0, k)
	for _, i := range order {
		if len(discords) == k {
			break
		}
		if math.IsInf(p.Dist[i], 1) || p.Neighbor[i] < 0 {
			continue
		}
		if p.excluded(i, taken) {
			continue
		}
		discords = append(discords, Discord{Index: i, Dist: p.Dist[i]})
		taken = append(taken, i)
	}
	return discords
}

// byDistance returns window offsets ordered by profile distance (ascending
// or descending), ties broken by offset so extraction is a deterministic
// function of the profile.
func (p *Profile) byDistance(desc bool) []int {
	order := make([]int, len(p.Dist))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if p.Dist[a] != p.Dist[b] {
			if desc {
				return p.Dist[a] > p.Dist[b]
			}
			return p.Dist[a] < p.Dist[b]
		}
		return a < b
	})
	return order
}

// excluded reports whether offset i lies within the exclusion zone
// (inclusive) of any already-taken offset.
func (p *Profile) excluded(i int, taken []int) bool {
	for _, t := range taken {
		d := i - t
		if d < 0 {
			d = -d
		}
		if d <= p.Exclusion {
			return true
		}
	}
	return false
}
