package hydra

import (
	"context"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/series"
)

// StreamUpdate is one event of a QueryStream. A stream delivers zero or
// more progressive updates (Final unset, Best holding the candidate that
// improved the query's best-so-far) followed by exactly one terminal event
// (Final set): either the answer in Matches/Stats, or Err.
type StreamUpdate struct {
	// Best is the candidate that improved the best-so-far (progressive
	// events only).
	Best Match
	// Matches is the final answer (terminal event only, nil on error). On an
	// exact engine it is bit-identical to Query.
	Matches []Match
	// Stats carries the final query's cost counters (terminal event only),
	// including the answering mode and guarantee parameters on non-exact
	// engines.
	Stats QueryStats
	// Mode tags the event's guarantee class. On a progressive event it names
	// the approximate mode that produced the candidate: "ng" for an index
	// engine's approximate head-start descent, "" for an exact traversal's
	// own best-so-far improvement. On the terminal event it is the answering
	// mode ("exact", "ng", "delta-eps", "budget") — matching Stats.Mode, so
	// a consumer that only watches events still knows what guarantee the
	// answer carries.
	Mode string
	// Final marks the terminal event; the channel closes after it.
	Final bool
	// Err reports a failed or cancelled query (terminal event only).
	Err error
}

// streamBuffer is the channel capacity of a QueryStream. Progressive
// updates are best-effort: when the consumer lags behind the buffer they
// are dropped, never the terminal event.
const streamBuffer = 16

// QueryStream answers a k-NN query while streaming best-so-far
// improvements — the anytime/early-result form of Query. How much progress
// is visible depends on the method:
//
//   - Scan engines (UCR-Suite) report every candidate that tightens the
//     scan's shared best-so-far bound as it happens.
//   - Index engines with ng-approximate support (ADS+, DSTree, iSAX2+,
//     SFA, VA+file) first run the approximate descent (one root-to-leaf
//     path) and report its best match tagged Mode "ng", then run the exact
//     query. The extra approximate pass charges its own simulated I/O.
//   - Other methods deliver only the terminal event.
//
// On a non-exact engine (WithApproxMode) the head-start is skipped — the
// query already answers in an approximate mode — and the stream delivers
// the mode's answer as its terminal event, tagged with the answering mode.
//
// The returned channel delivers progressive updates best-effort (a slow
// consumer misses intermediate updates, never the result), then exactly
// one terminal event — always, even against a full buffer — then closes.
// On an exact engine the terminal Matches are bit-identical to Query's
// answer. Cancelling ctx ends the stream promptly with a terminal Err
// event. The background query never outlives its own completion: an
// abandoned, never-drained stream costs the remainder of the (cancellable)
// query and a buffered channel, not a leaked goroutine.
func (e *Engine) QueryStream(ctx context.Context, q []float32, k int) <-chan StreamUpdate {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan StreamUpdate, streamBuffer)
	go func() {
		defer close(ch)
		progress := func(u StreamUpdate) {
			select {
			case ch <- u:
			default: // consumer lagging: drop the update, keep scanning
			}
		}

		var (
			matches []Match
			qs      QueryStats
			err     error
		)
		// The query runs inside a panic boundary: a panicking method (or an
		// armed query/panic faultpoint) must surface as a terminal Err event
		// on this stream, never as a process crash from an unattended
		// goroutine.
		func() {
			defer func() {
				if p := recover(); p != nil {
					matches, err = nil, fmt.Errorf("%w: %v", ErrQueryPanic, p)
				}
			}()
			if e.spec.Mode != core.ModeExact {
				// Non-exact engines answer in their own mode; the exact-path
				// head-start would be redundant work under a weaker guarantee.
				// QueryWithStats takes the ingest read lock itself.
				matches, qs, err = e.QueryWithStats(ctx, q, k)
				return
			}
			// One ingest read lock spans the whole streamed query, so the
			// approximate head-start and the exact refinement answer over the
			// same collection extent even while appends are arriving. The
			// lock-free queryWithStatsLocked avoids re-entering RLock under a
			// possibly blocked writer, which would deadlock.
			if ing := e.ing; ing != nil {
				ing.mu.RLock()
				defer ing.mu.RUnlock()
			}
			switch m := e.m.(type) {
			case core.KNNStreamer:
				matches, qs, err = core.RunQueryStream(ctx, m, e.coll, series.Series(q), k, func(b Match) {
					progress(StreamUpdate{Best: b})
				})
			case core.ApproxSearcher:
				var approx []Match
				approx, _, err = m.KNNApprox(ctx, series.Series(q), k, core.ApproxSpec{Mode: core.ModeNG})
				if err == nil {
					if len(approx) > 0 {
						progress(StreamUpdate{Best: approx[0], Mode: core.ModeNG.String()})
					}
					matches, qs, err = e.queryWithStatsLocked(ctx, q, k)
				}
			default:
				matches, qs, err = e.queryWithStatsLocked(ctx, q, k)
			}
		}()

		mode := qs.Mode
		if mode == "" {
			mode = core.ModeExact.String()
		}
		final := StreamUpdate{Matches: matches, Stats: qs, Mode: mode, Final: true}
		if err != nil {
			final = StreamUpdate{Err: err, Mode: mode, Final: true}
		}
		// The terminal event is delivered unconditionally: the query has
		// finished, so this goroutine is the only sender — when the buffer
		// is full it evicts the oldest progressive update to make room
		// (progressive updates are droppable by contract, the terminal
		// event is not) and never blocks, so an abandoned stream cannot
		// leak the goroutine.
		for {
			select {
			case ch <- final:
				return
			default:
				select {
				case <-ch:
				default:
				}
			}
		}
	}()
	return ch
}
