package hydra

import (
	"context"

	"hydra/internal/core"
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
// Under WithPartialOnDeadline a deadline that expires mid-query ends the
// stream with the best-so-far answer, Stats.Partial set, exactly as
// QueryWithStats answers; the head start still runs once.
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
	ch := make(chan StreamUpdate, streamBuffer)
	go func() {
		defer close(ch)
		// The query runs inside the panic boundary QueryBatch shares: a
		// panicking method (or an armed query/panic faultpoint) surfaces as
		// a terminal Err event on this stream, never as a process crash from
		// an unattended goroutine.
		matches, qs, err := e.guardedQuery(ctx, q, k, func(u StreamUpdate) {
			select {
			case ch <- u:
			default: // consumer lagging: drop the update, keep scanning
			}
		})

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
