package core

import (
	"sync"

	"hydra/internal/series"
)

// Scratch is the per-query reusable state of the zero-allocation query
// paths: the reordered query and its float64 widening, the query summary
// (PAA vector, DFT features, …), the candidate lower-bound and id buffers,
// the k-NN heap backing, a node priority queue, the BestFirst frontier and
// the index's own walk state, a candidate-id queue for filter-file visits,
// and a lower-bound lookup table for the batched kernels. Buffers grow on
// demand and never shrink, so steady-state queries stop allocating after
// the first few.
//
// A Scratch serves one query at a time; concurrent queries each take their
// own from a ScratchPool. Everything handed out by a Scratch (orders,
// buffers, the KNNSet) is invalidated by the next use of the same getter —
// results that outlive the query must be copied out (KNNSet.Results does).
type Scratch struct {
	ob       series.OrderBuilder
	wide     []float64
	summary  []float64
	aux      []float64
	table    []float64
	lb       []float64
	word     []uint8
	ids      []int
	f32      []float32
	cbuf     []complex128
	queue    BoundQueue
	set      KNNSet
	heap     any // *BoundHeap[T] for the owning index's payload type, see HeapOf
	frontier any // *Frontier[N] for the owning index's node type, see BestFirst
	state    any // *W for the owning index's walk state, see StateOf
}

// Order returns the block-granular reordered-early-abandoning order for q,
// equivalent to series.NewOrder without allocating. Valid until the next
// Order call.
func (s *Scratch) Order(q series.Series) series.Order { return s.ob.Build(q) }

// Wide returns q with every value widened to float64, the query form of the
// scan's run kernel (series.ScanRun). Valid until the next Wide call.
func (s *Scratch) Wide(q series.Series) []float64 {
	s.wide = growFloats(s.wide, len(q))
	for i, v := range q {
		s.wide[i] = float64(v)
	}
	return s.wide
}

// Summary returns a length-n float64 buffer for the query's reduced
// representation. Contents are undefined; the caller fills it.
func (s *Scratch) Summary(n int) []float64 { s.summary = growFloats(s.summary, n); return s.summary }

// Table returns a length-n float64 buffer for a lower-bound lookup table
// (sax.Quantizer.MinDistTable, vaq.Quantizer.LowerBoundTable). Contents are
// undefined.
func (s *Scratch) Table(n int) []float64 { s.table = growFloats(s.table, n); return s.table }

// LB returns a length-n float64 buffer for per-candidate lower bounds.
// Contents are undefined.
func (s *Scratch) LB(n int) []float64 { s.lb = growFloats(s.lb, n); return s.lb }

// Aux returns a second length-n float64 buffer, independent of Summary —
// for query paths that need two live summary-sized buffers at once (the
// DSTree keeps its prefix sums in Summary and its per-node (mean, std,
// width) triple for the EAPCA bound kernel here). Contents are undefined.
func (s *Scratch) Aux(n int) []float64 { s.aux = growFloats(s.aux, n); return s.aux }

// Word returns a length-n byte buffer for the query's symbolic word.
// Contents are undefined.
func (s *Scratch) Word(n int) []uint8 {
	if cap(s.word) < n {
		s.word = make([]uint8, n)
	}
	s.word = s.word[:n]
	return s.word
}

// IDs returns a length-n int buffer for candidate ids. Contents are
// undefined.
func (s *Scratch) IDs(n int) []int {
	if cap(s.ids) < n {
		s.ids = make([]int, n)
	}
	s.ids = s.ids[:n]
	return s.ids
}

// F32 returns a length-n float32 buffer (the query's block-moment synopsis
// in DSTree and M-tree). Contents are undefined.
func (s *Scratch) F32(n int) []float32 {
	if cap(s.f32) < n {
		s.f32 = make([]float32, n)
	}
	s.f32 = s.f32[:n]
	return s.f32
}

// Complex returns a length-n complex128 buffer (FFT workspaces). Contents
// are undefined.
func (s *Scratch) Complex(n int) []complex128 {
	if cap(s.cbuf) < n {
		s.cbuf = make([]complex128, n)
	}
	s.cbuf = s.cbuf[:n]
	return s.cbuf
}

// KNN returns the scratch's result set, reset to capacity k. The set reuses
// its heap backing across queries; Results still copies out, so returned
// matches are safe to keep.
func (s *Scratch) KNN(k int) *KNNSet { s.set.Reset(k); return &s.set }

// HeapOf returns the scratch's node priority queue for payload type T, reset
// to empty. A Scratch belongs to one index's pool, so T is the same on every
// call and the typed heap is allocated once, on the scratch's first query.
func HeapOf[T any](s *Scratch) *BoundHeap[T] {
	h, ok := s.heap.(*BoundHeap[T])
	if !ok {
		h = new(BoundHeap[T])
		s.heap = h
	}
	h.Reset()
	return h
}

// StateOf returns the scratch's value of type W — an index's per-query walk
// state, the Tree it hands BestFirst — allocated on the scratch's first
// query. A Scratch belongs to one index's pool, so W is the same on every
// call. The value keeps whatever the previous query left in it.
func StateOf[W any](s *Scratch) *W {
	w, ok := s.state.(*W)
	if !ok {
		w = new(W)
		s.state = w
	}
	return w
}

// maxSelect caps how many leading candidates a BoundQueue finds by insertion
// (O(maxSelect) per accepted id); a larger k only means the queue behind them
// is built before the result set is full, over every id.
const maxSelect = 64

// QueueByBound returns the ids 0..len(lbs)-1 as a lazy queue in ascending
// (lbs[id], id) order — the candidate visit order of the filter-file
// methods. The first min(k, maxSelect) ids of that order are picked in one
// pass over lbs; the heap behind them is built only when Next is asked for
// more, and then only over the ids the query's bound has not already ruled
// out (see Next). The queue reads lbs on every Next and is scratch-owned:
// both it and lbs must stay untouched until the caller is done, and the next
// QueueByBound call invalidates it.
func (s *Scratch) QueueByBound(lbs []float64, k int) *BoundQueue {
	q := &s.queue
	q.lb, q.next, q.heaped, q.queued = lbs, 0, false, 0
	q.ids = q.ids[:0]
	k = min(k, maxSelect, len(lbs))
	if cap(q.first) < k {
		q.first = make([]int, 0, maxSelect)
	}
	first := q.first[:0]
	if k > 0 {
		for id, lb := range lbs {
			m := len(first)
			if m == k {
				// ids ascend, so an equal bound is a larger key.
				if !(lb < lbs[first[m-1]]) {
					continue
				}
				m--
			}
			first = first[:m+1]
			for ; m > 0 && lbs[first[m-1]] > lb; m-- {
				first[m] = first[m-1]
			}
			first[m] = id
		}
	}
	q.first = first
	return q
}

// BoundQueue yields candidate ids in ascending (lower bound, id) order. The
// key is a total order, so the sequence is the one sorted permutation of the
// ids whatever the queue's internal arrangement — cut at the first id the
// query's pruner rules out.
type BoundQueue struct {
	first  []int // the leading ids, ascending; first[next:] not yet yielded
	next   int
	ids    []int // binary min-heap of the ids behind first, once heaped
	heaped bool
	queued int // len(ids) when it was heaped
	lb     []float64
}

// Next returns the next id in ascending (bound, id) order, or false when
// that id is pruned by pr against bound — the caller's current k-th best
// squared distance, which must never grow between calls — or no id is left.
// Every later id has a bound at least as large and the query's bound only
// falls, so false ends the visit.
//
// The first time the leading ids run out, the rest are queued: only those pr
// does not prune against bound. The ids left out sort after every id kept
// (their bounds are larger), and any of them would be pruned when its turn
// came, so the yielded sequence is the one a heap over all ids would give.
func (q *BoundQueue) Next(pr *Pruner, bound float64) (int, bool) {
	var id int
	if q.next < len(q.first) {
		id = q.first[q.next]
		q.next++
	} else {
		if !q.heaped {
			q.build(pr, bound)
		}
		n := len(q.ids) - 1
		if n < 0 {
			return 0, false
		}
		id = q.ids[0]
		q.ids[0] = q.ids[n]
		q.ids = q.ids[:n]
		q.down(0)
	}
	return id, !pr.Prune(q.lb[id], bound)
}

// Queued returns how many ids the heap behind the leading ones was built
// over: 0 until Next runs out of leading ids.
func (q *BoundQueue) Queued() int { return q.queued }

// build heapifies the ids behind the leading ones that pr does not prune
// against bound. Building is O(len(lbs)) compares plus O(kept); each Next
// after it is O(log kept).
func (q *BoundQueue) build(pr *Pruner, bound float64) {
	q.heaped = true
	ids := q.ids[:0]
	// Everything up to the last leading id's key has been yielded.
	lastLB, lastID := 0.0, -1
	if m := len(q.first); m > 0 {
		lastID = q.first[m-1]
		lastLB = q.lb[lastID]
	}
	for id, lb := range q.lb {
		if pr.Prune(lb, bound) || lastID >= 0 && (lb < lastLB || lb == lastLB && id <= lastID) {
			continue
		}
		ids = append(ids, id)
	}
	q.ids, q.queued = ids, len(ids)
	for i := len(ids)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts the id at heap position i into place. The moving id is held
// in locals and written once, so a level costs one store, not a swap. Which
// child is smaller is a coin flip on unsorted bounds, so the choice is added
// to the child index as 0 or 1 instead of branched on.
func (q *BoundQueue) down(i int) {
	ids, lb := q.ids, q.lb
	n := len(ids)
	if i >= n {
		return
	}
	id := ids[i]
	key := lb[id]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			lkey, rkey := lb[ids[c]], lb[ids[r]]
			right := rkey < lkey
			if rkey == lkey {
				right = ids[r] < ids[c]
			}
			var step int
			if right {
				step = 1
			}
			c += step
		}
		cid := ids[c]
		ckey := lb[cid]
		if key < ckey || key == ckey && id < cid {
			break
		}
		ids[i] = cid
		i = c
	}
	ids[i] = id
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ScratchPool hands out Scratches for concurrent queries against one built
// index. The zero value is ready to use; every method holds one and brackets
// its KNN with Get/Put, which is what drives steady-state per-query heap
// allocations to ~zero while staying safe under concurrent queries (each
// in-flight query owns its Scratch exclusively).
type ScratchPool struct {
	p sync.Pool
}

// Get returns a Scratch for exclusive use until Put.
func (sp *ScratchPool) Get() *Scratch {
	if v := sp.p.Get(); v != nil {
		return v.(*Scratch)
	}
	return &Scratch{}
}

// Put returns s to the pool. s must not be used afterwards.
func (sp *ScratchPool) Put(s *Scratch) { sp.p.Put(s) }

// BoundHeap is a min-heap of (payload, lower bound) pairs for best-first index
// traversals — the one priority queue of every tree. It is generic over the
// payload, so node pointers and the M-tree's (node, parent distance) visits
// are stored unboxed and a query allocates nothing for it: the backing array
// lives in a Scratch (see HeapOf). The sift procedures are the standard
// library heap's, so pop order (including the order of equal bounds) is the
// one the per-package queues it replaced produced.
type BoundHeap[T any] struct {
	items []boundItem[T]
}

type boundItem[T any] struct {
	lb float64
	v  T
}

// Reset empties the heap, keeping its backing.
func (h *BoundHeap[T]) Reset() { h.items = h.items[:0] }

// Len returns the number of queued payloads.
func (h *BoundHeap[T]) Len() int { return len(h.items) }

// Push queues v with the given lower bound.
func (h *BoundHeap[T]) Push(lb float64, v T) {
	h.items = append(h.items, boundItem[T]{lb: lb, v: v})
	h.up(len(h.items) - 1)
}

// PopMin removes and returns the queued payload with the smallest bound.
func (h *BoundHeap[T]) PopMin() (float64, T) {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items[n] = boundItem[T]{} // drop the payload's references
	h.items = h.items[:n]
	return it.lb, it.v
}

func (h *BoundHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h.items[i].lb <= h.items[j].lb {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *BoundHeap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.items[j2].lb < h.items[j1].lb {
			j = j2
		}
		if h.items[j].lb >= h.items[i].lb {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
