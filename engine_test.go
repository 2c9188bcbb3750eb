package hydra_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hydra"
	"hydra/internal/core"
	"hydra/internal/dataset"
)

// testData builds one shared dataset big enough that every method's query
// loop polls the context several times (the scans poll once per
// core.CancelBlock candidates).
func testData(t *testing.T) *hydra.Dataset {
	t.Helper()
	d, err := hydra.Generate("synthetic", 5000, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func engineFor(t *testing.T, method string, d *hydra.Dataset, opts ...hydra.Option) *hydra.Engine {
	t.Helper()
	e, err := hydra.BuildIndex(context.Background(), method,
		append([]hydra.Option{hydra.WithData(d), hydra.WithLeafSize(64)}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return e
}

// TestEngineConformance pins the facade's bit-identity contract: for every
// method, Engine.Query answers exactly what the underlying method answers
// when driven directly through internal/core on identically generated data
// — same IDs, same float64 distances, same tie-breaks. The pre-refactor
// engine is the same core path, so this is the facade-vs-engine
// equivalence the API redesign promises.
func TestEngineConformance(t *testing.T) {
	d := testData(t)
	// The oracle regenerates the same collection directly in the internal
	// layers (same generator, same seed).
	ods := dataset.RandomWalk(5000, 64, 17)
	queries := hydra.RandomWorkload(4, 64, 23)
	for _, name := range hydra.Methods() {
		t.Run(name, func(t *testing.T) {
			e := engineFor(t, name, d)
			m, err := core.New(name, core.Options{LeafSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			coll := core.NewCollection(ods)
			if err := m.Build(coll); err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.Query(qi)
				got, err := e.Query(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := m.KNN(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("q%d: facade %v != core %v", qi, got, want)
				}
				bf := core.BruteForceKNN(coll, q, 3)
				if got[0].ID != bf[0].ID {
					t.Fatalf("q%d: top-1 %d, brute force %d", qi, got[0].ID, bf[0].ID)
				}
			}
		})
	}
}

// cancelAfterPolls is a deterministic mid-query cancellation device: a
// context whose Done channel closes on the n-th cooperative poll. Unlike a
// timer-based cancel it is scheduling-independent, so the test pins "the
// n-th block check observes the cancel" exactly.
type cancelAfterPolls struct {
	mu        sync.Mutex
	remaining int
	ch        chan struct{}
	closed    bool
}

func newCancelAfterPolls(n int) *cancelAfterPolls {
	return &cancelAfterPolls{remaining: n, ch: make(chan struct{})}
}

func (c *cancelAfterPolls) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.remaining--
		if c.remaining <= 0 {
			close(c.ch)
			c.closed = true
		}
	}
	return c.ch
}

func (c *cancelAfterPolls) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return context.Canceled
	}
	return nil
}

func (c *cancelAfterPolls) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfterPolls) Value(any) any               { return nil }

// TestQueryCancellationEveryMethod is the satellite suite: a mid-scan
// cancel on every method returns context.Canceled and leaves the engine
// immediately reusable, answering the same query correctly afterwards.
func TestQueryCancellationEveryMethod(t *testing.T) {
	d := testData(t)
	q := hydra.RandomWorkload(1, 64, 31).Query(0)
	for _, name := range hydra.Methods() {
		t.Run(name, func(t *testing.T) {
			e := engineFor(t, name, d)
			want, err := e.Query(context.Background(), q, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Cancel at the very first poll: every query path must notice.
			_, err = e.Query(newCancelAfterPolls(1), q, 2)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("first-poll cancel: got %v, want context.Canceled", err)
			}
			// Cancel mid-query (third poll). Methods that legitimately
			// finish in under three polls may answer; anything else must
			// report the cancel, never a wrong answer.
			got, err := e.Query(newCancelAfterPolls(3), q, 2)
			if err == nil {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("completed under cancel with wrong answer: %v != %v", got, want)
				}
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-scan cancel: got %v, want context.Canceled", err)
			}
			// The engine must be reusable and exact after a cancel.
			got, err = e.Query(context.Background(), q, 2)
			if err != nil {
				t.Fatalf("engine not reusable after cancel: %v", err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("post-cancel answer drifted: %v != %v", got, want)
			}
		})
	}
}

// TestQueryCancellationParallelScan covers the scan's claim loop: the
// caller and its helpers must all observe the cancel and the call must
// return the context error under any cap.
func TestQueryCancellationParallelScan(t *testing.T) {
	d := testData(t)
	q := hydra.RandomWorkload(1, 64, 37).Query(0)
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(newCancelAfterPolls(1), q, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	want, err := e.Query(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := serial.Query(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != fmt.Sprint(ws) {
		t.Fatalf("parallel after cancel %v != serial %v", want, ws)
	}
}

// TestQueryDeadline pins deadline behavior: an expired deadline surfaces
// as context.DeadlineExceeded through the same cooperative mechanism.
func TestQueryDeadline(t *testing.T) {
	d := testData(t)
	e, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure expiry
	if _, err := e.Query(ctx, d.Series(0), 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryBatchSemantics pins the documented partial-failure contract.
func TestQueryBatchSemantics(t *testing.T) {
	d := testData(t)
	e := engineFor(t, "DSTree", d)
	good := d.Series(42)
	bad := []float32{1, 2, 3}

	t.Run("isolated failures", func(t *testing.T) {
		results, err := e.QueryBatch(context.Background(), [][]float32{good, bad, good, bad}, 1)
		if err == nil {
			t.Fatal("want the first failure reported")
		}
		if len(results) != 4 {
			t.Fatalf("results not aligned: %d entries", len(results))
		}
		if results[0] == nil || results[2] == nil {
			t.Fatalf("successful queries voided: %v", results)
		}
		if results[1] != nil || results[3] != nil {
			t.Fatalf("failed queries carry results: %v", results)
		}
		if results[0][0].ID != 42 {
			t.Fatalf("self-query answered %d", results[0][0].ID)
		}
		// QueryBatchErrors attributes each failure to its own query.
		res2, errs := e.QueryBatchErrors(context.Background(), [][]float32{good, bad, good, bad}, 1)
		for i := range res2 {
			if (res2[i] == nil) == (errs[i] == nil) {
				t.Fatalf("query %d: exactly one of result/error must be set (%v, %v)", i, res2[i], errs[i])
			}
		}
		if errs[1] == nil || errs[3] == nil {
			t.Fatalf("bad queries must carry their own errors: %v", errs)
		}
	})

	t.Run("all succeed", func(t *testing.T) {
		qs := hydra.RandomWorkload(10, 64, 5).Queries()
		results, err := e.QueryBatch(context.Background(), qs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if len(r) != 2 {
				t.Fatalf("query %d: %d matches", i, len(r))
			}
			// Batch answers must match serial answers bit for bit.
			want, err := e.Query(context.Background(), qs[i], 2)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(r) != fmt.Sprint(want) {
				t.Fatalf("query %d: batch %v != serial %v", i, r, want)
			}
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		results, err := e.QueryBatch(ctx, hydra.RandomWorkload(6, 64, 7).Queries(), 1)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		for i, r := range results {
			if r != nil {
				t.Fatalf("query %d answered under pre-cancelled context", i)
			}
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		results, err := e.QueryBatch(context.Background(), nil, 1)
		if err != nil || len(results) != 0 {
			t.Fatalf("empty batch: %v, %v", results, err)
		}
	})
}

// TestQueryStreamContract pins the stream shape for a scan engine (real
// incremental updates), an approx-capable index (approximate head start)
// and a method with neither (terminal event only).
func TestQueryStreamContract(t *testing.T) {
	d := testData(t)
	q := hydra.RandomWorkload(1, 64, 41).Query(0)
	for _, name := range []string{"UCR-Suite", "iSAX2+", "M-tree"} {
		t.Run(name, func(t *testing.T) {
			e := engineFor(t, name, d)
			want, err := e.Query(context.Background(), q, 3)
			if err != nil {
				t.Fatal(err)
			}
			finals := 0
			progress := 0
			var got []hydra.Match
			for u := range e.QueryStream(context.Background(), q, 3) {
				if u.Final {
					finals++
					if u.Err != nil {
						t.Fatal(u.Err)
					}
					got = u.Matches
					if u.Stats.DistCalcs == 0 {
						t.Fatal("terminal event carries no stats")
					}
				} else {
					progress++
					if u.Best.ID < 0 || u.Best.ID >= d.Len() {
						t.Fatalf("progress update names series %d", u.Best.ID)
					}
				}
			}
			if finals != 1 {
				t.Fatalf("%d terminal events, want exactly 1", finals)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("stream answer %v != query answer %v", got, want)
			}
			if name == "UCR-Suite" && progress == 0 {
				t.Fatal("scan stream delivered no progress updates")
			}
			if name == "iSAX2+" && progress == 0 {
				t.Fatal("approx-capable stream delivered no head start")
			}
		})
	}
}

// TestQueryStreamCancel pins the terminal error event on cancellation.
func TestQueryStreamCancel(t *testing.T) {
	d := testData(t)
	e, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	finals := 0
	for u := range e.QueryStream(ctx, d.Series(0), 1) {
		if u.Final {
			finals++
			if !errors.Is(u.Err, context.Canceled) {
				t.Fatalf("terminal err %v, want context.Canceled", u.Err)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("%d terminal events, want 1", finals)
	}
}

// TestQueryStreamTerminalSurvivesFullBuffer is the regression test for the
// terminal-event guarantee: a dataset crafted so candidates keep improving
// (each series slightly closer to the query than the last) overflows the
// stream's 16-slot progress buffer; a consumer that cancels first and only
// then drains must still receive exactly one terminal event — the sender
// evicts progressive updates, never the result.
func TestQueryStreamTerminalSurvivesFullBuffer(t *testing.T) {
	base := hydra.RandomWorkload(1, 64, 59).Query(0)
	noise := hydra.RandomWorkload(1, 64, 61).Query(0)
	rows := make([][]float32, 400)
	for i := range rows {
		row := make([]float32, len(base))
		amp := float32(4.0) / float32(i+1) // monotonically shrinking perturbation
		for j := range row {
			row[j] = base[j] + amp*noise[j]
		}
		rows[i] = row
	}
	d, err := hydra.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}

	// Buffer-pressure proof: don't read anything until the query is long
	// done. The crafted improvements fill all 16 slots; the terminal event
	// must then arrive by evicting a progressive update, so the drained
	// stream holds 15 progressive events plus the final one.
	ch := e.QueryStream(context.Background(), base, 1)
	time.Sleep(30 * time.Millisecond)
	progress, finals := 0, 0
	for u := range ch {
		if u.Final {
			finals++
		} else {
			progress++
		}
	}
	if finals != 1 {
		t.Fatalf("undrained stream: %d terminal events, want 1", finals)
	}
	if progress < 15 {
		t.Fatalf("crafted workload left only %d progressive updates buffered; need a full buffer to exercise eviction", progress)
	}

	// And the cancelled variant: cancel after completion, then drain — the
	// terminal event must still be there (the historical bug dropped it
	// whenever cancellation raced a full buffer).
	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := e.QueryStream(ctx, base, 1)
		time.Sleep(5 * time.Millisecond)
		cancel()
		finals := 0
		for u := range ch {
			if u.Final {
				finals++
			}
		}
		if finals != 1 {
			t.Fatalf("trial %d: %d terminal events, want exactly 1", trial, finals)
		}
	}
}

// TestSaveLoadRoundTrip pins the public persistence path: SaveIndex →
// LoadIndex answers bit-identically.
func TestSaveLoadRoundTrip(t *testing.T) {
	d := testData(t)
	q := hydra.RandomWorkload(1, 64, 47).Query(0)
	e := engineFor(t, "DSTree", d)
	path := filepath.Join(t.TempDir(), "dstree.hydx")
	if err := e.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.BuildStats().FromSnapshot {
		t.Fatal("loaded engine not marked FromSnapshot")
	}
	want, _ := e.Query(context.Background(), q, 3)
	got, err := loaded.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("loaded answers %v, built answers %v", got, want)
	}

	// Scans have nothing to save.
	scan, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.SaveIndex(filepath.Join(t.TempDir(), "x.hydx")); err == nil {
		t.Fatal("saving a scan should fail")
	}
}

// TestIndexDirCache pins the WithIndexDir snapshot cache: the second build
// loads instead of rebuilding.
func TestIndexDirCache(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	e1, err := hydra.BuildIndex(context.Background(), "iSAX2+",
		hydra.WithData(d), hydra.WithLeafSize(64), hydra.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if e1.BuildStats().FromSnapshot {
		t.Fatal("first build reported FromSnapshot")
	}
	e2, err := hydra.BuildIndex(context.Background(), "iSAX2+",
		hydra.WithData(d), hydra.WithLeafSize(64), hydra.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !e2.BuildStats().FromSnapshot {
		t.Fatal("second build did not hit the cache")
	}
	q := hydra.RandomWorkload(1, 64, 53).Query(0)
	a, _ := e1.Query(context.Background(), q, 2)
	b, err := e2.Query(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("cache-loaded engine answers %v, built answers %v", b, a)
	}
	// A different leaf size must miss the cache.
	e3, err := hydra.BuildIndex(context.Background(), "iSAX2+",
		hydra.WithData(d), hydra.WithLeafSize(128), hydra.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if e3.BuildStats().FromSnapshot {
		t.Fatal("changed options hit the cache")
	}
}

// TestOpenValidation covers constructor error paths.
func TestOpenValidation(t *testing.T) {
	if _, err := hydra.Open("/does/not/exist.hyd"); err == nil {
		t.Fatal("want error for missing dataset file")
	}
	if _, err := hydra.BuildIndex(context.Background(), "DSTree"); err == nil {
		t.Fatal("want error for missing dataset option")
	}
	d := testData(t)
	if _, err := hydra.BuildIndex(context.Background(), "no-such-method", hydra.WithData(d)); err == nil {
		t.Fatal("want error for unknown method")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hydra.BuildIndex(ctx, "DSTree", hydra.WithData(d)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildIndex: got %v", err)
	}
}
