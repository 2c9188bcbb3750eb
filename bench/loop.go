package main

import (
	"math"
	"sync"
	"time"
)

// classSpec is one operation class of a workload. Classes flagged query are
// the workload's k-NN query operation, the samples op_p50_ms and op_p99_ms
// are taken over; every class counts for ops_per_s and class_geomean_ms.
type classSpec struct {
	name  string
	query bool
}

// opSpec is one operation of a round: its class and a class-specific
// argument (a query index, a batch index).
type opSpec struct {
	class int
	arg   int
}

// opResult is what executing one operation reports to the load loop.
type opResult struct {
	dur time.Duration
	ok  bool
	// recall is the operation's recall@k against the exact answer, NaN for
	// an operation that is not a checkable k-NN query.
	recall float64
}

// samples is what a measured phase collected.
type samples struct {
	classes   []classSpec
	latMs     [][]float64 // per class
	attempted int
	failed    int
	recallSum float64
	recallN   int
	wall      time.Duration
	// lateMs is how late the open-loop generator issued each operation
	// (empty for closed loops, which have no schedule to be late against).
	lateMs []float64
}

func newSamples(classes []classSpec) *samples {
	return &samples{classes: classes, latMs: make([][]float64, len(classes))}
}

// add records one finished operation. A failed operation misses every
// latency, so it enters the distribution as +Inf.
func (s *samples) add(class int, r opResult) {
	s.attempted++
	ms := float64(r.dur.Nanoseconds()) / 1e6
	if !r.ok {
		s.failed++
		ms = math.Inf(1)
	}
	s.latMs[class] = append(s.latMs[class], ms)
	if !math.IsNaN(r.recall) {
		s.recallSum += r.recall
		s.recallN++
	}
}

// merge folds another client's samples into s.
func (s *samples) merge(o *samples) {
	for c := range o.latMs {
		s.latMs[c] = append(s.latMs[c], o.latMs[c]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.recallSum += o.recallSum
	s.recallN += o.recallN
	s.lateMs = append(s.lateMs, o.lateMs...)
	s.wall = max(s.wall, o.wall)
}

// queryLatencies pools the latencies of the query classes.
func (s *samples) queryLatencies() []float64 {
	var out []float64
	for c, cl := range s.classes {
		if cl.query {
			out = append(out, s.latMs[c]...)
		}
	}
	return out
}

// classMedians returns each non-empty class's median latency.
func (s *samples) classMedians() []float64 {
	var out []float64
	for _, l := range s.latMs {
		if len(l) > 0 {
			out = append(out, median(l))
		}
	}
	return out
}

// closedLoop is a load loop in which each client issues its next operation
// only after the previous one completed — the shape of the engine's real
// callers, which wait for a reply. rounds[c] is the fixed operation list
// client c repeats; whole rounds only, so every class sees the same queries
// equally often however long the phase runs.
type closedLoop struct {
	classes []classSpec
	rounds  [][]opSpec
	do      func(client int, o opSpec, tr *tracer) opResult
}

// minRounds is the fewest rounds (of every client together) that time at
// least minSamplesP99 query operations.
func (l *closedLoop) minRounds() int {
	perRound := 0
	for _, round := range l.rounds {
		for _, o := range round {
			if l.classes[o.class].query {
				perRound++
			}
		}
	}
	return minRoundsFor(perRound)
}

// minRoundsFor is the fewest rounds that time at least minSamplesP99 query
// operations, given how many one round holds.
func minRoundsFor(queriesPerRound int) int {
	return (minSamplesP99 + queriesPerRound - 1) / queriesPerRound
}

// moreRounds decides, at a round boundary, whether a client runs another
// round: it stops at the boundary nearest the requested duration, but never
// before minRounds rounds.
func moreRounds(done, minRounds int, elapsed, lastRound, target time.Duration) bool {
	if done < minRounds {
		return true
	}
	return elapsed+lastRound/2 < target
}

// run measures for about d (ending on a round boundary), at least minRounds
// rounds per client.
func (l *closedLoop) run(d time.Duration, minRounds int, tr *tracer) *samples {
	per := make([]*samples, len(l.rounds))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range l.rounds {
		per[c] = newSamples(l.classes)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := per[c]
			for done := 0; ; {
				roundStart := time.Now()
				for _, o := range l.rounds[c] {
					s.add(o.class, l.do(c, o, tr))
				}
				done++
				s.wall = time.Since(start)
				if !moreRounds(done, minRounds, s.wall, time.Since(roundStart), d) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := newSamples(l.classes)
	for _, s := range per {
		total.merge(s)
	}
	return total
}

// warm runs every client's round once, untimed and sequentially, so lazy
// structures (ADS+ adaptive leaves, scratch pools, keep-alive connections)
// converge before anything is measured. Its answers are checked into r.
func (l *closedLoop) warm(r *result) {
	for c, round := range l.rounds {
		for _, o := range round {
			r.check(l.do(c, o, nil).ok)
		}
	}
}

// schedule is a fixed-rate open-loop schedule: operation i is due at
// start + i*period, whether or not earlier operations have finished.
type schedule struct {
	start  time.Time
	period time.Duration
}

// due is the instant operation i should be issued.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// count is how many operations fall due within d.
func (s schedule) count(d time.Duration) int { return int(d / s.period) }

// lateness is how far behind schedule operation i was issued (never
// negative: the generator waits for the due time).
func (s schedule) lateness(i int, issued time.Time) time.Duration {
	return max(issued.Sub(s.due(i)), 0)
}

// latency is an open-loop operation's latency, measured from the instant it
// was due — so a stall charges every operation queued behind it, not just
// the one that hit it.
func (s schedule) latency(i int, finished time.Time) time.Duration {
	return finished.Sub(s.due(i))
}

// wait sleeps until operation i is due and returns the instant it was
// actually issued.
func (s schedule) wait(i int) time.Time {
	if d := time.Until(s.due(i)); d > 0 {
		time.Sleep(d)
	}
	return time.Now()
}
