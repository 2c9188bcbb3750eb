package hydra_test

// The fault-injection conformance suite: every fault the internal/faultpoint
// package can arm must surface through the public API as a typed error or a
// degraded (but well-formed) answer — never a hang, an escaped panic, or a
// silent wrong result — and the engine must stay bit-identically usable
// afterwards. CI runs this file under -race, plus one pass with
// HYDRA_FAULTPOINTS armed from the environment.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra"
	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/faultpoint"
	"hydra/internal/persist"
	"hydra/internal/series"
)

// faultData is the shared small collection of the suite (distinct seed from
// engine_test's, so cross-test snapshot caches cannot collide).
func faultData(t *testing.T) *hydra.Dataset {
	t.Helper()
	d, err := hydra.Generate("synthetic", 400, 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildSnapshot(t *testing.T, d *hydra.Dataset, method, path string) *hydra.Engine {
	t.Helper()
	e, err := hydra.BuildIndex(context.Background(), method, hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	return e
}

func sameMatches(a, b []hydra.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestFaultSnapshotReadError pins the retry policy: transient read errors
// are absorbed by LoadIndex's backoff within the attempt budget and fail
// typed once the budget is exhausted.
func TestFaultSnapshotReadError(t *testing.T) {
	d := faultData(t)
	method := hydra.PersistableMethods()[0]
	path := filepath.Join(t.TempDir(), "idx.hydx")
	orig := buildSnapshot(t, d, method, path)
	q := d.Series(5)
	want, err := orig.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Two injected failures, three default attempts: the load succeeds.
	faultpoint.ArmN(faultpoint.PersistReadError, 2)
	defer faultpoint.Disarm(faultpoint.PersistReadError)
	e, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if err != nil {
		t.Fatalf("load should survive 2 transient errors: %v", err)
	}
	if got := faultpoint.Hits(faultpoint.PersistReadError); got != 2 {
		t.Fatalf("expected both injected faults consumed, hits=%d", got)
	}
	got, err := e.Query(context.Background(), q, 3)
	if err != nil || !sameMatches(got, want) {
		t.Fatalf("retried engine answers differently: %v vs %v (%v)", got, want, err)
	}

	// More failures than the 3 attempts: a typed injected error.
	faultpoint.ArmN(faultpoint.PersistReadError, 5)
	_, err = hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("exhausted retries should surface the injected error, got %v", err)
	}
	faultpoint.Disarm(faultpoint.PersistReadError)

	// The snapshot itself was never harmed by the drill.
	if _, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d)); err != nil {
		t.Fatalf("snapshot damaged by transient drill: %v", err)
	}
}

// TestFaultShortRead pins the quarantine path: a truncated read makes the
// snapshot look corrupt, LoadIndex sets it aside as *.quarantined, and
// WithRebuildFallback turns the same failure into a fresh, working engine
// that reseeds the snapshot.
func TestFaultShortRead(t *testing.T) {
	d := faultData(t)
	method := hydra.PersistableMethods()[0]
	path := filepath.Join(t.TempDir(), "idx.hydx")
	orig := buildSnapshot(t, d, method, path)
	q := d.Series(9)
	want, err := orig.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.ArmN(faultpoint.PersistShortRead, 1)
	defer faultpoint.Disarm(faultpoint.PersistShortRead)
	_, err = hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if err == nil || !hydra.IsCorruptSnapshot(err) {
		t.Fatalf("short read should surface as corruption, got %v", err)
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", serr)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatal("original snapshot path should be free after quarantine")
	}

	// The fallback rebuilds over the now-missing snapshot and reseeds it.
	e, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d),
		hydra.WithRebuildFallback(method))
	if err != nil {
		t.Fatalf("rebuild fallback failed: %v", err)
	}
	if e.BuildStats().FromSnapshot {
		t.Fatal("fallback engine should report a build, not a load")
	}
	got, err := e.Query(context.Background(), q, 3)
	if err != nil || !sameMatches(got, want) {
		t.Fatalf("rebuilt engine answers differently: %v vs %v (%v)", got, want, err)
	}
	// Reseeded snapshot loads cleanly on the next start.
	e2, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if err != nil {
		t.Fatalf("reseeded snapshot should load: %v", err)
	}
	got, err = e2.Query(context.Background(), q, 3)
	if err != nil || !sameMatches(got, want) {
		t.Fatalf("reseeded engine answers differently: %v vs %v (%v)", got, want, err)
	}
}

// TestFaultSlowIO pins that injected latency only delays — the load still
// succeeds and answers exactly.
func TestFaultSlowIO(t *testing.T) {
	d := faultData(t)
	method := hydra.PersistableMethods()[0]
	path := filepath.Join(t.TempDir(), "idx.hydx")
	orig := buildSnapshot(t, d, method, path)
	q := d.Series(1)
	want, err := orig.Query(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.ArmDelay(faultpoint.PersistSlowIO, 5*time.Millisecond)
	defer faultpoint.Disarm(faultpoint.PersistSlowIO)
	e, err := hydra.LoadIndex(context.Background(), path, hydra.WithData(d))
	if err != nil {
		t.Fatalf("slow I/O must not fail the load: %v", err)
	}
	if faultpoint.Hits(faultpoint.PersistSlowIO) == 0 {
		t.Fatal("slow-io faultpoint never fired")
	}
	got, err := e.Query(context.Background(), q, 2)
	if err != nil || !sameMatches(got, want) {
		t.Fatalf("slow-loaded engine answers differently: %v vs %v (%v)", got, want, err)
	}
}

// TestFaultWorkerPanic pins the worker panic boundary: a panicking scan
// worker fails the one query with ErrWorkerPanic, and the engine answers
// the same query bit-identically right after.
func TestFaultWorkerPanic(t *testing.T) {
	d := faultData(t)
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series(12)
	want, err := e.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.ArmN(faultpoint.ScanWorkerPanic, 1)
	defer faultpoint.Disarm(faultpoint.ScanWorkerPanic)
	_, err = e.Query(context.Background(), q, 3)
	if !errors.Is(err, hydra.ErrWorkerPanic) {
		t.Fatalf("worker panic should surface typed, got %v", err)
	}

	got, err := e.Query(context.Background(), q, 3)
	if err != nil || !sameMatches(got, want) {
		t.Fatalf("engine poisoned by worker panic: %v vs %v (%v)", got, want, err)
	}
}

// TestFaultQueryPanicBatch pins per-query isolation inside QueryBatch: the
// panicking query alone fails (typed), its siblings answer, and the engine
// keeps serving.
func TestFaultQueryPanicBatch(t *testing.T) {
	d := faultData(t)
	// One batch worker makes the panic land deterministically on query 0.
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithBatchWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float32{d.Series(0), d.Series(1), d.Series(2)}

	faultpoint.ArmN(faultpoint.QueryPanic, 1)
	defer faultpoint.Disarm(faultpoint.QueryPanic)
	results, errs := e.QueryBatchErrors(context.Background(), qs, 1)
	if !errors.Is(errs[0], hydra.ErrQueryPanic) {
		t.Fatalf("query 0 should fail with ErrQueryPanic, got %v", errs[0])
	}
	if results[0] != nil {
		t.Fatal("failed query must not carry results")
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil || len(results[i]) != 1 || results[i][0].ID != i {
			t.Fatalf("sibling query %d harmed: %v %v", i, results[i], errs[i])
		}
	}

	// The engine is not poisoned: the same query answers normally now.
	m, err := e.Query(context.Background(), qs[0], 1)
	if err != nil || m[0].ID != 0 {
		t.Fatalf("engine unusable after recovered panic: %v (%v)", m, err)
	}
}

// TestFaultQueryPanicStream pins the stream boundary: a query panic inside
// QueryStream's goroutine becomes a terminal Err event — the process
// survives, and the next stream answers exactly.
func TestFaultQueryPanicStream(t *testing.T) {
	d := faultData(t)
	// An index method's stream reaches the instrumented query runner after
	// its head start; the query/panic faultpoint fires there, above every
	// per-worker recovery.
	e, err := hydra.BuildIndex(context.Background(), hydra.PersistableMethods()[0], hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series(3)

	faultpoint.ArmN(faultpoint.QueryPanic, 1)
	defer faultpoint.Disarm(faultpoint.QueryPanic)
	var last hydra.StreamUpdate
	for u := range e.QueryStream(context.Background(), q, 2) {
		last = u
	}
	if !last.Final || !errors.Is(last.Err, hydra.ErrQueryPanic) {
		t.Fatalf("stream should end with a typed panic error, got %+v", last)
	}

	for u := range e.QueryStream(context.Background(), q, 2) {
		last = u
	}
	if last.Err != nil || len(last.Matches) != 2 || last.Matches[0].ID != 3 {
		t.Fatalf("stream unusable after recovered panic: %+v", last)
	}
}

// TestFaultAllocPressure pins answer stability under memory churn: with the
// allocation-pressure faultpoint hammering the scan workers, answers stay
// bit-identical to the quiet run.
func TestFaultAllocPressure(t *testing.T) {
	d := faultData(t)
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series(7)
	want, err := e.Query(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm(faultpoint.ScanAllocPressure)
	defer faultpoint.Disarm(faultpoint.ScanAllocPressure)
	for i := 0; i < 3; i++ {
		got, err := e.Query(context.Background(), q, 5)
		if err != nil || !sameMatches(got, want) {
			t.Fatalf("run %d under alloc pressure differs: %v vs %v (%v)", i, got, want, err)
		}
	}
}

// deadlineAfterPolls is cancelAfterPolls' deadline twin: a context whose
// Done channel closes on the n-th cooperative poll and whose Err is
// context.DeadlineExceeded — the deterministic, scheduling-independent way
// to expire a deadline at an exact point of the scan.
type deadlineAfterPolls struct {
	mu        sync.Mutex
	remaining int
	ch        chan struct{}
	closed    bool
}

func newDeadlineAfterPolls(n int) *deadlineAfterPolls {
	return &deadlineAfterPolls{remaining: n, ch: make(chan struct{})}
}

func (c *deadlineAfterPolls) Done() <-chan struct{} {
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

func (c *deadlineAfterPolls) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *deadlineAfterPolls) Deadline() (time.Time, bool) { return time.Unix(0, 0), true }
func (c *deadlineAfterPolls) Value(any) any               { return nil }

// TestPartialOnDeadline is the acceptance pin of graceful degradation: a
// deadline expiring mid-scan returns, with a nil error and Partial set,
// exactly the best-so-far heap the stream path reported — verified
// bit-for-bit against a reference top-k over the examined prefix computed
// with the same kernels.
func TestPartialOnDeadline(t *testing.T) {
	const k = 3
	d, err := hydra.Generate("synthetic", 5000, 64, 29)
	if err != nil {
		t.Fatal(err)
	}
	// One worker makes the scan order (and therefore the examined prefix)
	// deterministic: series 0..examined-1 in order.
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(1), hydra.WithPartialOnDeadline())
	if err != nil {
		t.Fatal(err)
	}
	q := hydra.RandomWorkload(1, 64, 41).Query(0)

	ctx := newDeadlineAfterPolls(3)
	matches, qs, err := e.QueryWithStats(ctx, q, k)
	if err != nil {
		t.Fatalf("partial query should not error: %v", err)
	}
	if !qs.Partial {
		t.Fatal("deadline-expired answer should be marked partial")
	}
	examined := int(qs.RawSeriesExamined)
	if examined <= 0 || examined >= d.Len() {
		t.Fatalf("partial stats should cover the work done: examined=%d", examined)
	}
	if len(matches) != k {
		t.Fatalf("got %d matches, want %d", len(matches), k)
	}

	// Reference: the exact top-k over the examined prefix, computed with the
	// same reordered early-abandoning kernel the scan uses.
	var pool core.ScratchPool
	ps := pool.Get()
	defer pool.Put(ps)
	ord := ps.Order(series.Series(q))
	set := core.NewKNNSet(k)
	for i := 0; i < examined; i++ {
		dist := series.SquaredDistEAOrderedBlocked(series.Series(q), series.Series(d.Series(i)), ord, set.Bound())
		set.Add(i, dist)
	}
	want := set.Results()
	if !sameMatches(matches, want) {
		t.Fatalf("partial answer is not the best-so-far over the prefix:\n got %v\nwant %v", matches, want)
	}

	// The same engine still answers exactly (and unmarked) without a
	// deadline in the way.
	full, fqs, err := e.QueryWithStats(context.Background(), q, k)
	if err != nil || fqs.Partial {
		t.Fatalf("exact query after partial: err=%v partial=%v", err, fqs.Partial)
	}
	ref, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := ref.Query(context.Background(), q, k)
	if err != nil || !sameMatches(full, wantFull) {
		t.Fatalf("engine with the option answers completed queries differently: %v vs %v (%v)", full, wantFull, err)
	}

	// Explicit cancellation is not a deadline: the caller walked away, so
	// the query still fails.
	cctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	cancel()
	if _, _, err := e.QueryWithStats(cctx, q, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query should fail, got %v", err)
	}
}

// TestQueryStreamPartialOnDeadline pins that QueryStream honors
// WithPartialOnDeadline exactly like QueryWithStats: a deadline expiring
// mid-scan ends the stream with the best-so-far answer, marked partial and
// equal to QueryWithStats' answer under the same expiry, not with an Err
// event.
func TestQueryStreamPartialOnDeadline(t *testing.T) {
	const k = 3
	d, err := hydra.Generate("synthetic", 5000, 64, 29)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(1), hydra.WithPartialOnDeadline())
	if err != nil {
		t.Fatal(err)
	}
	q := hydra.RandomWorkload(1, 64, 41).Query(0)
	want, wqs, err := e.QueryWithStats(newDeadlineAfterPolls(3), q, k)
	if err != nil || !wqs.Partial || len(want) != k {
		t.Fatalf("reference partial query: %v (partial=%v, err=%v)", want, wqs.Partial, err)
	}

	finals := 0
	var final hydra.StreamUpdate
	for u := range e.QueryStream(newDeadlineAfterPolls(3), q, k) {
		if u.Final {
			finals++
			final = u
		}
	}
	if finals != 1 {
		t.Fatalf("%d terminal events, want exactly 1", finals)
	}
	if final.Err != nil {
		t.Fatalf("stream should end with the partial answer, got %v", final.Err)
	}
	if !final.Stats.Partial {
		t.Fatal("stream's deadline-expired answer should be marked partial")
	}
	if final.Stats.RawSeriesExamined != wqs.RawSeriesExamined {
		t.Fatalf("stream examined %d series, QueryWithStats %d", final.Stats.RawSeriesExamined, wqs.RawSeriesExamined)
	}
	if !sameMatches(final.Matches, want) {
		t.Fatalf("stream's partial answer differs from QueryWithStats':\n got %v\nwant %v", final.Matches, want)
	}
}

// TestQueryStreamHeadStartRunsOnce pins that an index stream runs its ng
// head start once whatever the engine's options: with WithPartialOnDeadline
// and a deadline that never expires, the stream polls its context exactly
// as often as on an engine built without the option, and answers the same.
func TestQueryStreamHeadStartRunsOnce(t *testing.T) {
	d := faultData(t)
	q := hydra.RandomWorkload(1, 64, 43).Query(0)
	stream := func(opts ...hydra.Option) ([]hydra.Match, int) {
		t.Helper()
		e, err := hydra.BuildIndex(context.Background(), "DSTree", append([]hydra.Option{hydra.WithData(d)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		const never = 1 << 30
		ctx := newDeadlineAfterPolls(never)
		var final hydra.StreamUpdate
		for u := range e.QueryStream(ctx, q, 3) {
			final = u
		}
		if !final.Final || final.Err != nil || final.Stats.Partial {
			t.Fatalf("stream should end with the exact answer, got %+v", final)
		}
		ctx.mu.Lock()
		defer ctx.mu.Unlock()
		return final.Matches, never - ctx.remaining
	}
	want, plain := stream()
	got, partial := stream(hydra.WithPartialOnDeadline())
	if plain == 0 {
		t.Fatal("the stream never polled its context")
	}
	if partial != plain {
		t.Fatalf("stream with WithPartialOnDeadline polled %d times, without %d: the head start ran more than once", partial, plain)
	}
	if !sameMatches(got, want) {
		t.Fatalf("answers differ: %v vs %v", got, want)
	}
}

// TestSnapshotCorruptionMatrix runs every persistable method's snapshot
// through the damage matrix — truncation, a flipped bit, a wrong magic, a
// wrong dataset — and checks each failure is typed; plus one crafted
// snapshot naming a method this binary does not register.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	d := faultData(t)
	other, err := hydra.Generate("synthetic", 400, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()

	for _, method := range hydra.PersistableMethods() {
		path := filepath.Join(dir, hydra.SnapshotName(method))
		buildSnapshot(t, d, method, path)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		damage := []struct {
			name   string
			mutate func([]byte) []byte
			check  func(error) bool
			detail string
		}{
			{"truncated", func(b []byte) []byte { return b[:len(b)/2] },
				hydra.IsCorruptSnapshot, "corrupt-class"},
			{"bitflip", func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[3*len(c)/4] ^= 0x10
				return c
			}, hydra.IsCorruptSnapshot, "corrupt-class"},
			{"badmagic", func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[0] ^= 0xFF
				return c
			}, func(err error) bool { return errors.Is(err, hydra.ErrSnapshotMagic) }, "ErrSnapshotMagic"},
		}
		for _, dm := range damage {
			t.Run(method+"/"+dm.name, func(t *testing.T) {
				vpath := filepath.Join(dir, fmt.Sprintf("%s-%s.hydx", persist.FileStem(method), dm.name))
				if err := os.WriteFile(vpath, dm.mutate(blob), 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := hydra.LoadIndex(ctx, vpath, hydra.WithData(d))
				if err == nil || !dm.check(err) {
					t.Fatalf("damaged (%s) snapshot should fail %s, got %v", dm.name, dm.detail, err)
				}
			})
		}

		t.Run(method+"/wrongdata", func(t *testing.T) {
			_, err := hydra.LoadIndex(ctx, path, hydra.WithData(other))
			if !errors.Is(err, hydra.ErrSnapshotMismatch) {
				t.Fatalf("wrong-dataset load should fail ErrSnapshotMismatch, got %v", err)
			}
			// Mismatch is not corruption: the intact snapshot must not have
			// been quarantined and still loads against its own data.
			if _, err := hydra.LoadIndex(ctx, path, hydra.WithData(d)); err != nil {
				t.Fatalf("mismatch probe damaged the snapshot: %v", err)
			}
		})
	}

	t.Run("unknown-method", func(t *testing.T) {
		// A structurally valid snapshot naming a method this binary does not
		// register: the common section must be intact (matching shape and
		// fingerprint) for the method lookup to be reached.
		dd, err := dataset.ByName("synthetic", 400, 64, 23) // same as faultData
		if err != nil {
			t.Fatal(err)
		}
		coll := core.NewCollection(dd)
		enc := persist.NewEncoder("NoSuchMethod")
		cw := enc.Section("common")
		cw.Int(coll.File.Len())
		cw.Int(coll.File.SeriesLen())
		cw.U32(core.Fingerprint(coll))
		for i := 0; i < 4; i++ { // LeafSize, Segments, SAXBits, SFAAlphabet
			cw.Int(0)
		}
		cw.Bool(false) // SFAEquiWidth
		cw.Int(0)      // VAQBitsPerDim
		cw.Int(0)      // SampleSize
		cw.Varint(0)   // MemoryBudgetBytes
		cw.Varint(0)   // Seed
		cw.Int(0)      // Workers slot
		var buf bytes.Buffer
		if _, err := enc.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "nosuch.hydx")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = hydra.LoadIndex(ctx, path, hydra.WithData(d))
		if !errors.Is(err, hydra.ErrUnknownMethod) {
			t.Fatalf("unknown-method snapshot should fail typed, got %v", err)
		}
	})
}

// envArmedAtStart records, before any test has armed or disarmed anything,
// whether the process came up with persist/slow-io armed from the
// environment — the state TestFaultEnvArmed asserts on, since earlier tests
// in this file legitimately overwrite and clear the same point.
var envArmedAtStart = faultpoint.Armed(faultpoint.PersistSlowIO)

// TestFaultEnvArmed verifies the environment arming path end to end; it
// runs only when the driver (CI's faults job) actually set the variable.
func TestFaultEnvArmed(t *testing.T) {
	spec := os.Getenv(faultpoint.EnvVar)
	if spec == "" {
		t.Skipf("%s not set", faultpoint.EnvVar)
	}
	if strings.Contains(spec, faultpoint.PersistSlowIO) && !envArmedAtStart {
		t.Fatalf("%s=%q should have armed %s at init", faultpoint.EnvVar, spec, faultpoint.PersistSlowIO)
	}
	// An armed process still answers exactly.
	d := faultData(t)
	e, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Query(context.Background(), d.Series(4), 1)
	if err != nil || m[0].ID != 4 {
		t.Fatalf("env-armed process answers wrong: %v (%v)", m, err)
	}
}
