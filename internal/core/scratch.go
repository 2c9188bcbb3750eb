package core

import (
	"sync"

	"hydra/internal/series"
)

// Scratch is the per-query reusable state of the zero-allocation query
// paths: the reordered query, the query summary (PAA vector, DFT features,
// …), the candidate lower-bound buffer, the k-NN heap backing, a node
// priority queue for best-first traversals, a candidate-id queue for
// filter-file visits, and a lower-bound lookup table for the batched
// kernels. Buffers grow on demand and never shrink, so steady-state queries
// stop allocating after the first few.
//
// A Scratch serves one query at a time; concurrent queries each take their
// own from a ScratchPool. Everything handed out by a Scratch (orders,
// buffers, the KNNSet) is invalidated by the next use of the same getter —
// results that outlive the query must be copied out (KNNSet.Results does).
type Scratch struct {
	ob      series.OrderBuilder
	summary []float64
	aux     []float64
	table   []float64
	lb      []float64
	word    []uint8
	f32     []float32
	cbuf    []complex128
	queue   BoundQueue
	set     KNNSet
	heap    BoundHeap
}

// Order returns the block-granular reordered-early-abandoning order for q,
// equivalent to series.NewOrder without allocating. Valid until the next
// Order call.
func (s *Scratch) Order(q series.Series) series.Order { return s.ob.Build(q) }

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

// F32 returns a length-n float32 buffer (normalized query/window copies of
// the subsequence paths). Contents are undefined.
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

// Heap returns the scratch's node priority queue, reset to empty.
func (s *Scratch) Heap() *BoundHeap { s.heap.Reset(); return &s.heap }

// QueueByBound returns the ids 0..len(lbs)-1 as a lazy min-queue over
// (lbs[id] ascending, id ascending) — the candidate visit order of
// filter-file methods, which pop a few hundred of many thousand candidates
// before the bound ends the query. Building the queue is O(n); each Pop is
// O(log n). The queue reads lbs on every Pop and is scratch-owned: both it
// and lbs must stay untouched until the caller is done popping, and the
// next QueueByBound call invalidates it.
func (s *Scratch) QueueByBound(lbs []float64) *BoundQueue {
	n := len(lbs)
	if cap(s.queue.ids) < n {
		s.queue.ids = make([]int, n)
	}
	q := &s.queue
	q.ids, q.lb = q.ids[:n], lbs
	for i := range q.ids {
		q.ids[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// BoundQueue is a binary min-heap of candidate ids keyed by (lower bound,
// id). The key is a total order, so the pop sequence is the one sorted
// permutation of the ids whatever the heap's internal arrangement.
type BoundQueue struct {
	ids []int
	lb  []float64
}

// Pop removes and returns the id with the smallest (bound, id) key.
// Precondition: fewer ids popped so far than the queue was built over.
func (q *BoundQueue) Pop() int {
	top := q.ids[0]
	n := len(q.ids) - 1
	q.ids[0] = q.ids[n]
	q.ids = q.ids[:n]
	q.down(0)
	return top
}

// down sifts the id at heap position i into place. The moving id is held
// in locals and written once, so a level costs one store, not a swap. Which
// child is smaller is a coin flip on unsorted bounds, so the choice is added
// to the child index as 0 or 1 instead of branched on: that alone took a
// quarter off the O(n) build.
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

// BoundHeap is a min-heap of (node, lower bound) pairs for best-first index
// traversals, replacing the per-package container/heap boilerplate with one
// allocation-free implementation: the backing array lives in a Scratch and
// node pointers are stored in interface words without boxing. The sift
// procedures mirror container/heap exactly, so pop order (including the
// order of equal bounds) matches the former per-package heaps.
type BoundHeap struct {
	items []boundItem
}

type boundItem struct {
	lb   float64
	node any // always a node pointer; pointers store into any without allocating
}

// Reset empties the heap, keeping its backing.
func (h *BoundHeap) Reset() { h.items = h.items[:0] }

// Len returns the number of queued nodes.
func (h *BoundHeap) Len() int { return len(h.items) }

// Push queues node with the given lower bound.
func (h *BoundHeap) Push(lb float64, node any) {
	h.items = append(h.items, boundItem{lb: lb, node: node})
	h.up(len(h.items) - 1)
}

// PopMin removes and returns the queued node with the smallest bound.
func (h *BoundHeap) PopMin() (float64, any) {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items[n] = boundItem{} // drop the node reference
	h.items = h.items[:n]
	return it.lb, it.node
}

func (h *BoundHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h.items[i].lb <= h.items[j].lb {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *BoundHeap) down(i0, n int) {
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
