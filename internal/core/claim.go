package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Claim is the work-pulling loop of ParIS+/MESSI-style exact search: a
// pass's chunks [0, n) are handed out in order, one at a time, from one
// atomic counter to the calling goroutine and its helpers. A goroutine
// claims its next chunk only when it is done with the last, so a helper
// that starts late, because every core is busy, finds the chunks taken and
// exits: on a busy process a pass costs what the serial pass costs, and on
// an idle one it spreads over the free cores, with no setting deciding
// which. The UCR-Suite scan (ScanKNN) and the matrix profile run on it.
//
// A Claim serves one pass at a time and may be reused after Wait.
type Claim struct {
	next atomic.Int64
	n    int64
	wg   sync.WaitGroup
}

// Helpers returns how many helper goroutines a pass of n chunks starts
// beside its caller under the cap workers: min(workers, GOMAXPROCS, n) − 1,
// where workers ≤ 0 caps nothing. A cap of 1 is the serial pass.
func Helpers(workers, n int) int {
	p := runtime.GOMAXPROCS(0)
	if workers > 0 {
		p = min(p, workers)
	}
	return max(min(p, n)-1, 0)
}

// Start resets the claim to the chunks [0, n) and starts h goroutines
// running help, each of which must call Done when it returns. Passing the
// same func value on every pass (a method value bound once) lets a pass
// start its helpers without allocating.
func (c *Claim) Start(n, h int, help func()) {
	c.next.Store(0)
	c.n = int64(n)
	c.wg.Add(h)
	for range h {
		go help()
	}
}

// Next claims the next chunk; ok is false once every chunk is claimed.
func (c *Claim) Next() (chunk int, ok bool) {
	i := c.next.Add(1) - 1
	return int(i), i < c.n
}

// Done marks one helper of the pass as returned.
func (c *Claim) Done() { c.wg.Done() }

// Wait returns once every helper started by Start has called Done, so no
// helper outlives its pass.
func (c *Claim) Wait() { c.wg.Wait() }
