package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hydra/internal/faultpoint"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// ErrWorkerPanic is the sentinel wrapped by the error a scan returns when
// one of its goroutines panicked (including faultpoint drills): the panic is
// recovered at the goroutine boundary, the other goroutines finish, and the
// query reports a typed error instead of crashing the process. The scan
// holds no cross-query state, so the collection and method stay fully
// usable afterwards.
var ErrWorkerPanic = errors.New("core: scan worker panicked")

// BestSoFar is a lock-free pruning bound shared by concurrent scan workers,
// the coordination device of MESSI-style parallel query answering: every
// worker prunes against the global minimum of all workers' published bounds
// instead of only its own. The value is stored as float64 bits in an atomic
// word; updates are compare-and-swap minimum, so the bound only ever
// tightens.
type BestSoFar struct {
	bits atomic.Uint64
}

// reset sets the bound to +Inf (nothing pruned), the state a pass starts in.
func (b *BestSoFar) reset() { b.bits.Store(math.Float64bits(math.Inf(1))) }

// Load returns the current shared bound.
func (b *BestSoFar) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the shared bound to v if v is smaller, retrying the CAS
// until this update is reflected or a concurrent update made it obsolete.
// It reports whether this call lowered the bound — the signal the streaming
// query paths publish as a best-so-far improvement.
func (b *BestSoFar) Tighten(v float64) bool {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// Merge folds every candidate of o into s, preserving the deterministic
// (distance, then ascending ID) selection: for a fixed multiset of
// candidates the resulting top-k is unique regardless of insertion order, so
// merging per-worker sets reproduces the serial scan's answer exactly.
func (s *KNNSet) Merge(o *KNNSet) {
	for _, m := range o.heap {
		s.Add(m.ID, m.Dist)
	}
}

// ScanKNN answers an exact k-NN query with the UCR-suite scan — reordered
// early abandoning against the running k-th best distance — in one claim
// loop (Claim): the calling goroutine and up to min(workers, GOMAXPROCS)−1
// helpers claim CancelBlock-row chunks of the raw file, scan each against
// the smaller of their own k-th best and the shared BestSoFar, and merge
// their result sets. workers caps the goroutines: ≤ 0 uses every core, 1 is
// the paper's serial pass on the caller alone.
//
// The answer is bit-identical for every cap and every schedule: a candidate
// of the final top-k is never abandoned (every bound in play is at least
// the final k-th distance), so its distance is the full sum the serial
// kernel computes, and the (distance, ID) selection is order-independent.
// So are the counters: every row read is one distance calculation and one
// examined series, and the rows read are charged to the query's
// storage.Cursor as one sequential pass from series 0 — for a completed
// query, the file size in n sequential reads and no seek, whoever scanned
// which chunk.
//
// emit, if not nil, receives every candidate that tightens the shared
// bound or enters a still-filling set, at its true (square-rooted)
// distance. Emissions are a best-effort progress signal whose number and
// order depend on scheduling; emit is called from every goroutine of the
// pass, must be safe for concurrent use, and must not block on the caller.
//
// Cancellation: each goroutine polls ctx once per chunk and stops within
// one chunk of a cancel; the call then returns ctx.Err() with the rows
// actually read counted. A goroutine that panics fails the query with
// ErrWorkerPanic.
//
// The pass's state lives in a pooled Scratch and its helpers start through
// a func value bound once per Scratch, so a query allocates nothing beyond
// its returned matches; every helper has returned before ScanKNN does.
func ScanKNN(ctx context.Context, c *Collection, q series.Series, k, workers int, emit func(Match)) ([]Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if len(q) != c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("core: query length %d, collection length %d", len(q), c.File.SeriesLen())
	}
	cur := c.File.Cursor()
	n := cur.Len()
	if n == 0 {
		return nil, qs, nil
	}
	sc := scanScratch.Get()
	defer scanScratch.Put(sc)
	p := StateOf[scanPass](sc)
	if p.help == nil {
		p.help = p.helper
	}
	p.ctx, p.rows, p.l, p.n, p.k, p.emit = ctx, c.File.PeekFlat(0, n), len(q), n, k, emit
	p.qw, p.ord = sc.Wide(q), sc.Order(q)
	p.shared.reset()
	p.set.Reset(k)
	p.read, p.panicked = 0, nil
	defer p.release()

	chunks := (n + CancelBlock - 1) / CancelBlock
	h := Helpers(workers, chunks)
	var shared *BestSoFar
	if h > 0 || emit != nil {
		shared = &p.shared
	}
	set := sc.KNN(k)
	p.claim.Start(chunks, h, p.help)
	read := p.work(set, shared)
	p.claim.Wait()
	read += p.read
	set.Merge(&p.set)

	qs.DistCalcs, qs.RawSeriesExamined = int64(read), int64(read)
	cur.ReadRun(0, read)
	qs.IO = cur.Flush()
	if p.panicked != nil {
		return nil, qs, p.panicked
	}
	if read < n {
		return nil, qs, ctx.Err()
	}
	return set.Results(), qs, nil
}

// scanPass is one ScanKNN query's claim loop, kept in the caller's Scratch:
// the query, the charge-free view of the pinned rows, the shared bound, and
// the set and row count the helpers fold into under mu.
type scanPass struct {
	claim    Claim
	shared   BestSoFar
	ctx      context.Context
	rows     []float32
	l, n, k  int
	qw       []float64
	ord      series.Order
	emit     func(Match)
	help     func() // p.helper, bound once per Scratch
	mu       sync.Mutex
	set      KNNSet // the helpers' merged sets
	read     int    // rows the helpers read
	panicked error
}

// helper is one helper goroutine of the pass: it scans into a set of its
// own and folds the set and its row count into the pass.
func (p *scanPass) helper() {
	defer p.claim.Done()
	sc := scanScratch.Get()
	defer scanScratch.Put(sc)
	set := sc.KNN(p.k)
	read := p.work(set, &p.shared)
	p.mu.Lock()
	p.set.Merge(set)
	p.read += read
	p.mu.Unlock()
}

// work claims chunks until none is left or a poll finds ctx done, scanning
// each into set, and returns the rows it read. A panic (a kernel bug, or an
// armed faultpoint drill) is recovered here, at the goroutine boundary
// where it would otherwise kill the process, and fails the query typed.
func (p *scanPass) work(set *KNNSet, shared *BestSoFar) (read int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
			}
			p.mu.Unlock()
		}
	}()
	faultpoint.MaybePanic(faultpoint.ScanWorkerPanic)
	faultpoint.ChurnAllocs(faultpoint.ScanAllocPressure)
	for {
		c, ok := p.claim.Next()
		if !ok || Canceled(p.ctx) != nil {
			return read
		}
		lo := c * CancelBlock
		cnt := min(CancelBlock, p.n-lo)
		p.chunk(lo, cnt, set, shared)
		read += cnt
	}
}

// chunk runs the UCR-suite loop over the cnt rows from series lo: the run
// kernel (series.ScanRun) walks the rows itself and returns only at a row
// whose full distance is within the bound, so only such rows reach
// set.Add. With a shared bound, the bound of each kernel call is the
// smaller of the set's and the shared one, the set's bound tightens the
// shared one after an Add, and emit (if not nil) receives an added row, at
// its true distance, when that lowered the shared bound or the set is still
// filling. A shared bound read once per kernel call can only be stale on
// the loose side, so it lets through rows the exact answer does not need
// and never holds one back.
func (p *scanPass) chunk(lo, cnt int, set *KNNSet, shared *BestSoFar) {
	l := p.l
	rows := p.rows[lo*l : (lo+cnt)*l]
	for j := 0; j < cnt; j++ {
		bound := set.Bound()
		if shared != nil {
			if g := shared.Load(); g < bound {
				bound = g
			}
		}
		next, d := series.ScanRun(p.qw, rows[j*l:], cnt-j, p.ord, bound)
		if j += next; j == cnt {
			break
		}
		id := lo + j
		if !set.Add(id, d) || shared == nil {
			continue
		}
		improved := shared.Tighten(set.Bound())
		if p.emit != nil && (improved || math.IsInf(set.Bound(), 1)) {
			p.emit(Match{ID: id, Dist: math.Sqrt(d)})
		}
	}
}

// release drops the pass's references to the query, so a pooled Scratch
// keeps no collection or callback alive.
func (p *scanPass) release() {
	p.ctx, p.rows, p.emit, p.qw = nil, nil, nil, nil
}

// scanScratch pools the per-query and per-helper scratch state of ScanKNN
// across all collections in the process.
var scanScratch ScratchPool
