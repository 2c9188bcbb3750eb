package hydra_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hydra"
	"hydra/internal/faultpoint"
	"hydra/internal/wal"
)

// The crash-drill conformance suite: a real child process (this test
// binary, re-executed) ingests series, checkpointing every third batch, and
// is SIGKILLed mid-write — at a byte-precise offset of the bytes it writes
// to the write-ahead log and the checkpoint log together (wal.CrashEnvVar),
// or at a WAL faultpoint armed on either log. The parent then recovers an
// engine from the ingest directory the child died in and asserts the
// durability contract:
//
//   - every acked append is present,
//   - at most the one in-flight unacked batch beyond that,
//   - never a torn batch,
//   - queries are bit-identical to an engine that never crashed, and
//   - a checkpoint plus re-recovery changes nothing.

const (
	drillBase    = 200 // series the child's base collection holds
	drillLen     = 32  // series length
	drillBatch   = 5   // series per appended batch
	drillBatches = 12  // batches the child tries to append
	drillCkpt    = 3   // the child checkpoints after every drillCkpt-th batch
	drillSeed    = 424242
)

// frameBytes is the on-disk size of one log record of count series of
// length sl starting at firstSeq (docs/FORMAT.md §6): length prefix, two
// uvarints, values, CRC.
func frameBytes(firstSeq, count, sl int) int {
	var buf [binary.MaxVarintLen64]byte
	return 4 + binary.PutUvarint(buf[:], uint64(firstSeq)) + binary.PutUvarint(buf[:], uint64(count)) + count*sl*4 + 4
}

// drillStreamBytes returns how many bytes the child has written to both
// logs together once it has appended batches batches and finished every
// checkpoint due by then: both headers, one write-ahead frame per batch, one
// checkpoint frame per drillCkpt batches.
func drillStreamBytes(batches int) int {
	n := 24 + 12
	for b := 0; b < batches; b++ {
		n += frameBytes(drillBase+b*drillBatch, drillBatch, drillLen)
		if (b+1)%drillCkpt == 0 {
			n += frameBytes(drillBase+(b+1-drillCkpt)*drillBatch, drillCkpt*drillBatch, drillLen)
		}
	}
	return n
}

// drillRows is the deterministic row set both parent and child derive their
// data from — the child's base is rows[:drillBase], its appends come in
// order after that.
func drillRows() [][]float32 {
	return rawRows(drillBase+drillBatch*drillBatches, drillLen, drillSeed)
}

// TestCrashDrillChild is the child half of the drill: it is inert under a
// normal test run and only does work when re-executed by the parent with
// HYDRA_CRASH_CHILD set. It builds an ingesting engine and appends batches,
// printing "ACK <batches>" after each durable append and "CKPT <n>" after
// each checkpoint (one every drillCkpt batches); the crash hook (or an armed
// faultpoint) interrupts it. HYDRA_CRASH_FAULT arms its faultpoint from the
// start, so it fires on the first append; with HYDRA_CRASH_FAULT_ON=ckpt it
// is armed just before the first checkpoint instead, so it fires on the
// checkpoint log. On an append or checkpoint error the child prints "STOP"
// and exits cleanly — an errored append is unacked by contract.
func TestCrashDrillChild(t *testing.T) {
	if os.Getenv("HYDRA_CRASH_CHILD") == "" {
		t.Skip("crash-drill child: only runs re-executed")
	}
	dir := os.Getenv("HYDRA_CRASH_DIR")
	method := os.Getenv("HYDRA_CRASH_METHOD")
	armFault := func() {
		switch point := os.Getenv("HYDRA_CRASH_FAULT"); point {
		case "":
		case faultpoint.WALSlowFsync:
			faultpoint.ArmDelay(point, 0)
		default:
			faultpoint.ArmN(point, 1)
		}
	}
	onCkpt := os.Getenv("HYDRA_CRASH_FAULT_ON") == "ckpt"
	if !onCkpt {
		armFault()
	}
	rows := drillRows()
	e, err := hydra.BuildIndex(context.Background(), method,
		hydra.WithData(datasetFrom(t, rows[:drillBase])),
		hydra.WithLeafSize(32),
		hydra.WithIngestDir(dir))
	if err != nil {
		t.Fatalf("child build: %v", err)
	}
	for b := 0; b < drillBatches; b++ {
		lo := drillBase + b*drillBatch
		if err := e.Append(context.Background(), rows[lo:lo+drillBatch]...); err != nil {
			fmt.Println("STOP")
			return
		}
		fmt.Println("ACK", b+1)
		if (b+1)%drillCkpt == 0 {
			if onCkpt && b+1 == drillCkpt {
				armFault()
			}
			if err := e.Checkpoint(context.Background()); err != nil {
				fmt.Println("STOP")
				return
			}
			fmt.Println("CKPT", (b+1)/drillCkpt)
		}
	}
	fmt.Println("DONE")
	e.Close()
}

// runDrillChild re-executes the test binary as a crash-drill child and
// returns the number of batches it acked and of checkpoints it completed
// before dying (or finishing).
func runDrillChild(t *testing.T, dir, method string, extraEnv ...string) (acked, ckpts int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashDrillChild$")
	cmd.Env = append(os.Environ(),
		"HYDRA_CRASH_CHILD=1",
		"HYDRA_CRASH_DIR="+dir,
		"HYDRA_CRASH_METHOD="+method,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err != nil && !strings.Contains(err.Error(), "signal: killed") {
		t.Fatalf("child died unexpectedly (%v):\n%s", err, out.String())
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		for prefix, into := range map[string]*int{"ACK ": &acked, "CKPT ": &ckpts} {
			if n, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				v, err := strconv.Atoi(strings.TrimSpace(n))
				if err != nil {
					t.Fatalf("bad progress line %q", sc.Text())
				}
				*into = v
			}
		}
	}
	return acked, ckpts
}

// verifyDrillRecovery opens an engine over the crashed child's ingest
// directory and asserts the durability contract against the acked count,
// including the checkpoint-then-re-recover no-op.
func verifyDrillRecovery(t *testing.T, dir, method string, acked int) {
	t.Helper()
	rows := drillRows()
	queries := hydra.RandomWorkload(3, drillLen, 7)
	e, err := hydra.BuildIndex(context.Background(), method,
		hydra.WithData(datasetFrom(t, rows[:drillBase])),
		hydra.WithLeafSize(32),
		hydra.WithIngestDir(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	tail := e.Len() - drillBase
	if tail%drillBatch != 0 {
		t.Fatalf("recovered a torn batch: %d extra series", tail)
	}
	batches := tail / drillBatch
	if batches < acked || batches > acked+1 {
		t.Fatalf("recovered %d batches, child acked %d (want acked or acked+1)", batches, acked)
	}
	// Bit-identity against an engine that never crashed: same series, fresh
	// build, no WAL.
	assertParity(t, e, oracle(t, method, rows[:drillBase+tail]), queries, 5)
	// Fold the tail into a checkpoint, recover again: nothing may change.
	if err := e.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Close()
	r, err := hydra.BuildIndex(context.Background(), method,
		hydra.WithData(datasetFrom(t, rows[:drillBase])),
		hydra.WithLeafSize(32),
		hydra.WithIngestDir(dir))
	if err != nil {
		t.Fatalf("re-recovery after checkpoint: %v", err)
	}
	defer r.Close()
	if r.Len() != drillBase+tail {
		t.Fatalf("re-recovery changed the collection: %d != %d", r.Len(), drillBase+tail)
	}
	assertParity(t, r, oracle(t, method, rows[:drillBase+tail]), queries, 5)
}

// TestCrashDrillRandomOffsets SIGKILLs the child at random byte offsets of
// the stream it writes to both logs together (rotating through the
// ingest-capable methods) and asserts recovery for each. The first 20 fall
// in the stream's first 7 872 bytes — the headers, two rounds of three
// batches and a checkpoint, the start of the seventh batch — the next 12
// anywhere in it; an offset past its end exercises the no-crash path.
func TestCrashDrillRandomOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drills re-exec the test binary")
	}
	perBatch := 8 + 4 + 3 + drillBatch*drillLen*4
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 32; i++ {
		maxBytes := 12 + drillBatches*perBatch
		if i >= 20 {
			maxBytes = drillStreamBytes(drillBatches) + perBatch
		}
		offset := rng.Intn(maxBytes)
		method := ingestMethods[i%len(ingestMethods)]
		t.Run(fmt.Sprintf("%s-at-%d", method, offset), func(t *testing.T) {
			dir := t.TempDir()
			acked, _ := runDrillChild(t, dir, method,
				fmt.Sprintf("%s=%d", wal.CrashEnvVar, offset))
			verifyDrillRecovery(t, dir, method, acked)
		})
	}
}

// TestCrashDrillBetweenCheckpointAndTruncate kills the child at the one
// point no byte offset inside a frame reaches: after the first checkpoint
// record is written and fsynced, before the write-ahead log is truncated.
// Both logs then hold the same three batches; replay must apply them once.
func TestCrashDrillBetweenCheckpointAndTruncate(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drills re-exec the test binary")
	}
	for _, method := range ingestMethods {
		t.Run(method, func(t *testing.T) {
			dir := t.TempDir()
			acked, ckpts := runDrillChild(t, dir, method,
				fmt.Sprintf("%s=%d", wal.CrashEnvVar, drillStreamBytes(drillCkpt)))
			if acked != drillCkpt || ckpts != 0 {
				t.Fatalf("child acked %d batches and finished %d checkpoints; want it dead inside the first checkpoint, after batch %d", acked, ckpts, drillCkpt)
			}
			for name, want := range map[string]int{
				"ingest.ckpt": 24 + frameBytes(drillBase, drillCkpt*drillBatch, drillLen),
				"ingest.wal":  12 + drillCkpt*frameBytes(drillBase, drillBatch, drillLen),
			} {
				if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() != int64(want) {
					t.Fatalf("%s after the kill: %v bytes (err %v), want %d: the record written, the log not yet truncated", name, fi.Size(), err, want)
				}
			}
			verifyDrillRecovery(t, dir, method, acked)
		})
	}
}

// TestCrashDrillFaultpoints runs the child once per armed WAL faultpoint,
// fired on the write-ahead log (the first append) and on the checkpoint log
// (the first checkpoint): the injected fault interrupts (or delays) the
// write, the child stops, and recovery must still honor exactly the acked
// prefix.
func TestCrashDrillFaultpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drills re-exec the test binary")
	}
	points := []string{
		faultpoint.WALShortWrite,
		faultpoint.WALSyncError,
		faultpoint.WALTornTail,
		faultpoint.WALSlowFsync,
	}
	for i, point := range points {
		method := ingestMethods[i%len(ingestMethods)]
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			acked, _ := runDrillChild(t, dir, method, "HYDRA_CRASH_FAULT="+point)
			if point == faultpoint.WALSlowFsync && acked != drillBatches {
				t.Fatalf("slow fsync lost appends: acked %d", acked)
			}
			verifyDrillRecovery(t, dir, method, acked)
		})
		t.Run("ckpt/"+point, func(t *testing.T) {
			dir := t.TempDir()
			acked, ckpts := runDrillChild(t, dir, method, "HYDRA_CRASH_FAULT="+point, "HYDRA_CRASH_FAULT_ON=ckpt")
			wantAcked, wantCkpts := drillCkpt, 0 // stopped by its first checkpoint's error
			if point == faultpoint.WALSlowFsync {
				wantAcked, wantCkpts = drillBatches, drillBatches/drillCkpt
			}
			if acked != wantAcked || ckpts != wantCkpts {
				t.Fatalf("child acked %d batches and finished %d checkpoints, want %d and %d", acked, ckpts, wantAcked, wantCkpts)
			}
			verifyDrillRecovery(t, dir, method, acked)
		})
	}
}
