package hydra_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hydra"
	"hydra/internal/faultpoint"
	"hydra/internal/wal"
)

// ingestMethods are the methods with incremental-insert support — the set
// Engine.Append accepts.
var ingestMethods = []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree"}

// rawRows generates deterministic random-walk rows. Tests build base and
// oracle datasets from the same raw rows, so z-normalization happens exactly
// once per series on both sides and bit-identity comparisons are exact.
func rawRows(n, l int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, l)
		v := float32(0)
		for j := range row {
			v += float32(rng.NormFloat64())
			row[j] = v
		}
		rows[i] = row
	}
	return rows
}

func datasetFrom(t *testing.T, rows [][]float32) *hydra.Dataset {
	t.Helper()
	d, err := hydra.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ingestEngine builds an ingesting engine of the given method over the base
// rows.
func ingestEngine(t *testing.T, method string, rows [][]float32, dir string, opts ...hydra.Option) *hydra.Engine {
	t.Helper()
	e, err := hydra.BuildIndex(context.Background(), method,
		append([]hydra.Option{
			hydra.WithData(datasetFrom(t, rows)),
			hydra.WithLeafSize(32),
			hydra.WithIngestDir(dir),
		}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return e
}

// oracle builds a read-only engine over all rows at once — the
// never-crashed, never-ingested reference answers.
func oracle(t *testing.T, method string, rows [][]float32) *hydra.Engine {
	t.Helper()
	e, err := hydra.BuildIndex(context.Background(), method,
		hydra.WithData(datasetFrom(t, rows)), hydra.WithLeafSize(32))
	if err != nil {
		t.Fatalf("%s oracle: %v", method, err)
	}
	return e
}

// assertParity checks that got answers the workload bit-identically to want.
func assertParity(t *testing.T, got, want *hydra.Engine, queries *hydra.Workload, k int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("collection size %d, oracle %d", got.Len(), want.Len())
	}
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.Query(qi)
		g, err := got.Query(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Query(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("q%d: got %v, oracle %v", qi, g, w)
		}
	}
}

// TestIngestAppendParity pins the core ingestion contract: appending series
// into a live engine yields the same answers as building fresh over the
// grown collection, for every ingest-capable method.
func TestIngestAppendParity(t *testing.T) {
	rows := rawRows(600, 64, 11)
	queries := hydra.RandomWorkload(5, 64, 23)
	for _, method := range ingestMethods {
		t.Run(method, func(t *testing.T) {
			e := ingestEngine(t, method, rows[:500], t.TempDir())
			defer e.Close()
			// Mixed batch shapes: single series, then a bulk batch.
			if err := e.Append(context.Background(), rows[500]); err != nil {
				t.Fatal(err)
			}
			if err := e.Append(context.Background(), rows[501:]...); err != nil {
				t.Fatal(err)
			}
			assertParity(t, e, oracle(t, method, rows), queries, 5)
			st, ok := e.IngestStats()
			if !ok || st.Appended != 100 || st.WALSeries != 100 {
				t.Fatalf("stats = %+v, ok=%v; want 100 appended and logged", st, ok)
			}
		})
	}
}

// TestIngestRecovery pins crash recovery at the facade level: series
// appended (and acked) by one engine are replayed when a second engine opens
// the same ingest directory, and answers match the never-crashed oracle
// bit-identically. A third open replays idempotently.
func TestIngestRecovery(t *testing.T) {
	rows := rawRows(560, 64, 12)
	queries := hydra.RandomWorkload(5, 64, 29)
	for _, method := range ingestMethods {
		t.Run(method, func(t *testing.T) {
			dir := t.TempDir()
			a := ingestEngine(t, method, rows[:500], dir)
			if err := a.Append(context.Background(), rows[500:]...); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			want := oracle(t, method, rows)
			for round := 0; round < 2; round++ {
				b := ingestEngine(t, method, rows[:500], dir)
				st, _ := b.IngestStats()
				if st.Recovered != 60 {
					t.Fatalf("round %d: recovered %d series, want 60", round, st.Recovered)
				}
				assertParity(t, b, want, queries, 5)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestIngestCheckpoint pins the checkpoint contract: Checkpoint folds the
// log into the checkpoint file and truncates it; recovery over checkpoint
// plus post-checkpoint log is complete; and checkpointing again then
// re-recovering changes nothing.
func TestIngestCheckpoint(t *testing.T) {
	rows := rawRows(540, 64, 13)
	queries := hydra.RandomWorkload(4, 64, 31)
	for _, method := range ingestMethods {
		t.Run(method, func(t *testing.T) {
			dir := t.TempDir()
			a := ingestEngine(t, method, rows[:500], dir)
			if err := a.Append(context.Background(), rows[500:520]...); err != nil {
				t.Fatal(err)
			}
			if err := a.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st, _ := a.IngestStats(); st.WALRecords != 0 || st.Checkpoints != 1 {
				t.Fatalf("after checkpoint: %+v, want empty log", st)
			}
			if err := a.Append(context.Background(), rows[520:]...); err != nil {
				t.Fatal(err)
			}
			a.Close()

			want := oracle(t, method, rows)
			b := ingestEngine(t, method, rows[:500], dir)
			if st, _ := b.IngestStats(); st.Recovered != 40 {
				t.Fatalf("recovered %d series, want 40", st.Recovered)
			}
			assertParity(t, b, want, queries, 5)
			// Checkpoint the recovered tail, then recover once more: nothing
			// may change (the acceptance criterion's no-op re-recovery).
			if err := b.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			b.Close()
			c := ingestEngine(t, method, rows[:500], dir)
			defer c.Close()
			if st, _ := c.IngestStats(); st.Recovered != 40 || st.WALRecords != 0 {
				t.Fatalf("re-recovery after checkpoint: %+v, want 40 recovered, empty log", st)
			}
			assertParity(t, c, want, queries, 5)
		})
	}
}

// TestIngestUnsupported: build-once methods refuse WithIngestDir at
// construction, and Append without WithIngestDir fails.
func TestIngestUnsupported(t *testing.T) {
	rows := rawRows(100, 64, 14)
	for _, method := range []string{"VA+file", "SFA", "R*-tree", "M-tree", "Stepwise", "MASS"} {
		_, err := hydra.BuildIndex(context.Background(), method,
			hydra.WithData(datasetFrom(t, rows)), hydra.WithIngestDir(t.TempDir()))
		if !errors.Is(err, hydra.ErrIngestUnsupported) {
			t.Fatalf("%s with ingest dir: err = %v, want ErrIngestUnsupported", method, err)
		}
	}
	e, err := hydra.BuildIndex(context.Background(), "UCR-Suite", hydra.WithData(datasetFrom(t, rows)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(context.Background(), rows[0]); err == nil {
		t.Fatal("Append without WithIngestDir succeeded")
	}
	if _, ok := e.IngestStats(); ok {
		t.Fatal("IngestStats ok on a read-only engine")
	}
}

// TestIngestValidation covers argument checking and the closed-log state.
func TestIngestValidation(t *testing.T) {
	rows := rawRows(100, 64, 15)
	e := ingestEngine(t, "UCR-Suite", rows, t.TempDir())
	if err := e.Append(context.Background()); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if err := e.Append(context.Background(), make([]float32, 63)); err == nil {
		t.Fatal("append of wrong-length series succeeded")
	}
	if e.Len() != 100 {
		t.Fatalf("failed appends changed the collection: %d", e.Len())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := e.Append(context.Background(), rows[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := e.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint after close succeeded")
	}
	if _, err := e.Query(context.Background(), rows[0], 3); err != nil {
		t.Fatalf("query after close: %v", err)
	}
}

// TestIngestConcurrentQueries races queries (plain, stream, derived-engine)
// and a checkpointing goroutine against a writer appending batches; run
// under -race this pins the append/query exclusion and that a checkpoint
// reads the series it folds without either lock's write side. Queries must
// always see a whole number of batches.
func TestIngestConcurrentQueries(t *testing.T) {
	rows := rawRows(640, 64, 16)
	dir := t.TempDir()
	e := ingestEngine(t, "ADS+", rows[:512], dir)
	defer e.Close()
	q := hydra.RandomWorkload(1, 64, 37).Query(0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.Query(context.Background(), q, 3); err != nil {
					t.Error(err)
					return
				}
				for range e.QueryStream(context.Background(), q, 3) {
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := e.Checkpoint(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 512; i < 640; i += 4 {
		if err := e.Append(context.Background(), rows[i:i+4]...); err != nil {
			t.Fatal(err)
		}
		if e.Len()%4 != 0 {
			t.Fatalf("partial batch visible: %d", e.Len())
		}
	}
	close(done)
	wg.Wait()
	if e.Len() != 640 {
		t.Fatalf("final length %d, want 640", e.Len())
	}
	// Whatever the interleaving was, checkpoint log plus write-ahead log
	// hold every series exactly once.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r := ingestEngine(t, "ADS+", rows[:512], dir)
	defer r.Close()
	assertParity(t, r, oracle(t, "ADS+", rows), hydra.RandomWorkload(3, 64, 41), 3)
}

// TestIngestSyncPolicies exercises the WithWALSync surface: "off" and an
// interval policy work, garbage fails construction.
func TestIngestSyncPolicies(t *testing.T) {
	rows := rawRows(110, 64, 18)
	for _, policy := range []string{"off", "100ms", "always"} {
		e := ingestEngine(t, "UCR-Suite", rows[:100], t.TempDir(), hydra.WithWALSync(policy))
		if err := e.Append(context.Background(), rows[100:]...); err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		st, _ := e.IngestStats()
		if policy == "off" && st.Syncs != 0 {
			t.Fatalf("policy off issued %d fsyncs", st.Syncs)
		}
		if policy == "always" && st.Syncs == 0 {
			t.Fatal("policy always issued no fsyncs")
		}
		e.Close()
	}
	_, err := hydra.BuildIndex(context.Background(), "UCR-Suite",
		hydra.WithData(datasetFrom(t, rows)),
		hydra.WithIngestDir(t.TempDir()), hydra.WithWALSync("sometimes"))
	if err == nil {
		t.Fatal("bogus sync policy accepted")
	}
}

// TestIngestShardRefused: sharded engines cannot ingest (append positions
// are collection-global).
func TestIngestShardRefused(t *testing.T) {
	rows := rawRows(100, 64, 19)
	_, err := hydra.BuildIndex(context.Background(), "UCR-Suite",
		hydra.WithData(datasetFrom(t, rows)),
		hydra.WithShard(0, 2), hydra.WithIngestDir(t.TempDir()))
	if err == nil {
		t.Fatal("sharded ingest engine constructed")
	}
}

// TestIngestFaultTornTail pins the library-level torn-tail contract under a
// standing-armed fault (the crash drills cover the process-death variant):
// every append fails typed with nothing applied, the engine stays queryable
// and bit-identical to its base, and the next open truncates the torn frames
// so recovery is exactly the base collection. The crash-drill CI job runs
// this test with HYDRA_FAULTPOINTS=wal/torn-tail armed from the environment;
// run standalone, the test arms the point itself.
func TestIngestFaultTornTail(t *testing.T) {
	envArmed := faultpoint.Armed(faultpoint.WALTornTail)
	rows := rawRows(220, 64, 31)
	queries := hydra.RandomWorkload(3, 64, 37)
	for _, method := range ingestMethods {
		t.Run(method, func(t *testing.T) {
			if !envArmed {
				faultpoint.Arm(faultpoint.WALTornTail)
				defer faultpoint.Reset()
			}
			dir := t.TempDir()
			e := ingestEngine(t, method, rows[:200], dir)
			for round := 0; round < 3; round++ {
				err := e.Append(context.Background(), rows[200+round:210]...)
				var fp *faultpoint.Error
				if !errors.As(err, &fp) || fp.Point != faultpoint.WALTornTail {
					t.Fatalf("round %d: append error %v, want injected torn tail", round, err)
				}
			}
			if e.Len() != 200 {
				t.Fatalf("failed appends grew the collection to %d", e.Len())
			}
			assertParity(t, e, oracle(t, method, rows[:200]), queries, 3)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			// The torn frames are on disk; the next open truncates them and
			// recovers nothing — never a partial batch.
			b := ingestEngine(t, method, rows[:200], dir)
			defer b.Close()
			st, _ := b.IngestStats()
			if st.Recovered != 0 || st.WALRecords != 0 || b.Len() != 200 {
				t.Fatalf("torn tail recovered: %+v, len %d", st, b.Len())
			}
			assertParity(t, b, oracle(t, method, rows[:200]), queries, 3)
		})
	}
}

// TestCheckpointDoesNotBlockQueries pins the lock split: while a checkpoint
// sits in a slow fsync, queries, IngestStats and SaveIndex go through, and
// an Append issued meanwhile waits for the checkpoint, then lands and is
// visible.
func TestCheckpointDoesNotBlockQueries(t *testing.T) {
	defer faultpoint.Reset()
	rows := rawRows(520, 64, 43)
	// The write-ahead log does not fsync, so the armed delay is met only by
	// the checkpoint log, which always does.
	e := ingestEngine(t, "ADS+", rows[:500], t.TempDir(), hydra.WithWALSync("off"))
	defer e.Close()
	if err := e.Append(context.Background(), rows[500:510]...); err != nil {
		t.Fatal(err)
	}
	const stall = 300 * time.Millisecond
	faultpoint.ArmDelay(faultpoint.WALSlowFsync, stall)
	ckpt, app := make(chan error, 1), make(chan error, 1) // one result each
	started := time.Now()
	go func() { ckpt <- e.Checkpoint(context.Background()) }()
	for faultpoint.Hits(faultpoint.WALSlowFsync) == 0 { // the checkpoint is inside its fsync
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	var appended time.Duration // since started; read after the receive from app
	go func() {
		err := e.Append(context.Background(), rows[510:]...)
		appended = time.Since(started)
		app <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the append reach the writer lock

	t0 := time.Now()
	if _, err := e.Query(context.Background(), rows[0], 3); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("a query issued during a %s checkpoint took %s", stall, d)
	}
	if st, ok := e.IngestStats(); !ok || st.WALRecords != 1 {
		t.Fatalf("IngestStats during the checkpoint: %+v, ok=%v; want the log not yet truncated", st, ok)
	}
	if err := e.SaveIndex(filepath.Join(t.TempDir(), "during.hydx")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ckpt:
		t.Fatalf("the checkpoint finished (err %v) before the calls it was meant to overlap; raise the stall", err)
	case err := <-app:
		t.Fatalf("an Append issued during the checkpoint returned before it (err %v)", err)
	default:
	}

	if cerr, aerr := <-ckpt, <-app; cerr != nil || aerr != nil {
		t.Fatalf("checkpoint err %v, append err %v", cerr, aerr)
	}
	// The checkpoint released the writer lock no earlier than its fsync's
	// delay after it started; the append got it after that.
	if appended < stall {
		t.Fatalf("the Append returned %s after the checkpoint started, inside its %s fsync", appended, stall)
	}
	if e.Len() != 520 {
		t.Fatalf("collection holds %d series after the queued append, want 520", e.Len())
	}
	assertParity(t, e, oracle(t, "ADS+", rows), hydra.RandomWorkload(3, 64, 47), 3)
}

// TestCheckpointWritesOnlyDelta pins the checkpoint's cost model: the k-th
// checkpoint grows ingest.ckpt by exactly one record of the series appended
// since the (k-1)-th, however long the tail before it is, and a checkpoint
// with nothing new writes nothing, fsyncs nothing and leaves the log empty.
func TestCheckpointWritesOnlyDelta(t *testing.T) {
	defer faultpoint.Reset()
	const base, sl = 300, 64
	rows := rawRows(base+400, sl, 53)
	dir := t.TempDir()
	e := ingestEngine(t, "UCR-Suite", rows[:base], dir)
	defer e.Close()
	ckptPath := filepath.Join(dir, "ingest.ckpt")
	size := func() int64 {
		fi, err := os.Stat(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if size() != 24 {
		t.Fatalf("fresh checkpoint log is %d bytes, want its 24-byte header", size())
	}
	at := base
	for k, delta := range []int{300, 7, 1, 64, 7} { // a long tail first, then small deltas on top of it
		for lo := at; lo < at+delta; lo += 50 {
			if err := e.Append(context.Background(), rows[lo:min(lo+50, at+delta)]...); err != nil {
				t.Fatal(err)
			}
		}
		before := size()
		if err := e.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := size()-before, int64(frameBytes(at, delta, sl)); got != want {
			t.Fatalf("checkpoint %d folded %d series onto a tail of %d and grew the log by %d bytes, want %d", k+1, delta, at-base, got, want)
		}
		at += delta
		st, _ := e.IngestStats()
		if st.WALRecords != 0 || st.CheckpointRecords != int64(k+1) || st.CheckpointBytes != size() {
			t.Fatalf("after checkpoint %d: %+v, want an empty log and %d checkpoint records in %d bytes", k+1, st, k+1, size())
		}
	}

	// Nothing new: no write, no fsync (every log fsync passes the armed
	// point), and the write-ahead log stays a bare header.
	before, _ := os.ReadFile(ckptPath)
	faultpoint.ArmDelay(faultpoint.WALSlowFsync, 0)
	if err := e.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits := faultpoint.Hits(faultpoint.WALSlowFsync); hits != 0 {
		t.Fatalf("a checkpoint with nothing to fold fsynced %d times", hits)
	}
	if after, _ := os.ReadFile(ckptPath); !bytes.Equal(after, before) {
		t.Fatal("a checkpoint with nothing to fold changed the checkpoint log")
	}
	if fi, err := os.Stat(filepath.Join(dir, "ingest.wal")); err != nil || fi.Size() != 12 {
		t.Fatalf("write-ahead log after the checkpoints: %v bytes (err %v), want its 12-byte header", fi.Size(), err)
	}
}

// TestCheckpointLogCorruptionMatrix damages every frame of a three-record
// checkpoint log in every way a disk can — flipped bits in payload, length
// and checksum, a cut inside the frame, a frame replaced by a copy of
// another — with the write-ahead log either empty (the checkpoint log is
// the only copy) or still holding the last record's series (a crash before
// its truncation). The contract: every acked series is recovered, or the
// open fails typed and leaves both files byte-identical — never fewer
// series silently.
func TestCheckpointLogCorruptionMatrix(t *testing.T) {
	const base, sl, per = 200, 32, 5
	rows := rawRows(base+3*per, sl, 59)
	queries := hydra.RandomWorkload(2, sl, 61)
	want := oracle(t, "UCR-Suite", rows)
	src := t.TempDir()
	ckptPath, walPath := filepath.Join(src, "ingest.ckpt"), filepath.Join(src, "ingest.wal")
	e := ingestEngine(t, "UCR-Suite", rows[:base], src)
	var walBeforeLast []byte
	for k := 0; k < 3; k++ {
		if err := e.Append(context.Background(), rows[base+k*per:base+(k+1)*per]...); err != nil {
			t.Fatal(err)
		}
		walBeforeLast, _ = os.ReadFile(walPath)
		if err := e.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	ckpt, _ := os.ReadFile(ckptPath)
	walEmpty, _ := os.ReadFile(walPath)
	frame := make([]int, 4) // frame k occupies ckpt[frame[k]:frame[k+1]]
	frame[0] = 24
	for k := 0; k < 3; k++ {
		frame[k+1] = frame[k] + frameBytes(base+k*per, per, sl)
	}
	if len(walEmpty) != 12 || frame[3] != len(ckpt) {
		t.Fatalf("setup: log of %d bytes, checkpoint log of %d bytes with frames at %v", len(walEmpty), len(ckpt), frame)
	}

	damages := map[string]func(k int) []byte{
		"flip payload": func(k int) []byte { b := bytes.Clone(ckpt); b[frame[k]+40] ^= 0x04; return b },
		"flip length":  func(k int) []byte { b := bytes.Clone(ckpt); b[frame[k]+1] ^= 0x40; return b },
		"flip crc":     func(k int) []byte { b := bytes.Clone(ckpt); b[frame[k+1]-2] ^= 0x80; return b },
		"cut inside":   func(k int) []byte { return bytes.Clone(ckpt[:frame[k]+100]) },
		"splice": func(k int) []byte { // frame k replaced by a copy of the next one (cyclically)
			o := (k + 1) % 3
			b := append(bytes.Clone(ckpt[:frame[k]]), ckpt[frame[o]:frame[o+1]]...)
			return append(b, ckpt[frame[k+1]:]...)
		},
	}
	recovered, refused := 0, 0
	for walName, walData := range map[string][]byte{"log empty": walEmpty, "log holds last record": walBeforeLast} {
		for name, damage := range damages {
			for k := 0; k < 3; k++ {
				dir := t.TempDir()
				bad := damage(k)
				cp, wp := filepath.Join(dir, "ingest.ckpt"), filepath.Join(dir, "ingest.wal")
				if err := os.WriteFile(cp, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wp, walData, 0o644); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s, %s in frame %d", walName, name, k)
				got, err := hydra.BuildIndex(context.Background(), "UCR-Suite",
					hydra.WithData(datasetFrom(t, rows[:base])), hydra.WithIngestDir(dir))
				if err != nil {
					refused++
					if !errors.Is(err, hydra.ErrIngestCorrupt) {
						t.Fatalf("%s: open failed untyped: %v", label, err)
					}
					afterC, _ := os.ReadFile(cp)
					afterW, _ := os.ReadFile(wp)
					if !bytes.Equal(afterC, bad) || !bytes.Equal(afterW, walData) {
						t.Fatalf("%s: the refused open modified the ingest directory", label)
					}
					// Damage in the last record alone is recoverable whenever
					// the log still holds it; refusing then would be a bug too.
					if k == 2 && name != "splice" && walName == "log holds last record" {
						t.Fatalf("%s: refused (%v) although the log covers the damaged record", label, err)
					}
					continue
				}
				recovered++
				if got.Len() != len(rows) {
					t.Fatalf("%s: opened with %d series, %d were acked", label, got.Len(), len(rows))
				}
				assertParity(t, got, want, queries, 3)
				got.Close()
			}
		}
	}
	// 2 log states × 5 damages × 3 frames; only last-record damage beside a
	// covering log recovers (the splice leaves an intact out-of-order record
	// there, which no log makes right).
	if recovered != 4 || refused != 26 {
		t.Fatalf("%d cases recovered and %d were refused, want 4 and 26", recovered, refused)
	}
}

// TestIngestRefusesForeignCheckpoint: a checkpoint log written over another
// base, a legacy persist-envelope checkpoint and a write-ahead log that
// starts past the checkpoint log's extent each fail typed, with both files
// untouched (docs/FORMAT.md §6: there is no migration).
func TestIngestRefusesForeignCheckpoint(t *testing.T) {
	rows := rawRows(230, 64, 67)
	seed := func(t *testing.T) string {
		dir := t.TempDir()
		e := ingestEngine(t, "UCR-Suite", rows[:200], dir)
		for lo := 200; lo < 220; lo += 10 {
			if err := e.Append(context.Background(), rows[lo:lo+10]...); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Append(context.Background(), rows[220:]...); err != nil {
			t.Fatal(err)
		}
		e.Close()
		return dir
	}
	for _, c := range []struct {
		name   string
		base   [][]float32
		tamper func(t *testing.T, dir string)
		want   error
	}{
		{"other base data", rawRows(200, 64, 68), nil, hydra.ErrIngestMismatch},
		{"other base count", rows[:199], nil, hydra.ErrIngestMismatch},
		{"legacy checkpoint", rows[:200], func(t *testing.T, dir string) {
			legacy := append([]byte("HYDIDX\x01\x00\x11ingest-checkpoint"), make([]byte, 256)...)
			if err := os.WriteFile(filepath.Join(dir, "ingest.ckpt"), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		}, wal.ErrMagic},
		{"checkpoint log lost", rows[:200], func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "ingest.ckpt")); err != nil {
				t.Fatal(err)
			}
		}, hydra.ErrIngestCorrupt},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := seed(t)
			if c.tamper != nil {
				c.tamper(t, dir)
			}
			before := readDir(t, dir)
			_, err := hydra.BuildIndex(context.Background(), "UCR-Suite",
				hydra.WithData(datasetFrom(t, c.base)), hydra.WithIngestDir(dir))
			if !errors.Is(err, c.want) {
				t.Fatalf("open: %v, want %v", err, c.want)
			}
			if after := readDir(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatal("the refused open modified the ingest directory")
			}
		})
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = string(data)
	}
	return files
}
