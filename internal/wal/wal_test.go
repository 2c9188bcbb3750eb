package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hydra/internal/faultpoint"
)

// seriesBatch builds a deterministic batch of n series of length sl whose
// values encode (seq, position) so bit-identity checks are meaningful.
func seriesBatch(firstSeq uint64, n, sl int) []float32 {
	v := make([]float32, n*sl)
	for i := range v {
		v[i] = float32(firstSeq)*1000 + float32(i)*0.5
	}
	return v
}

func openT(t *testing.T, path string, sl int) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, sl, SyncAlways, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	const sl = 8
	l, recs := openT(t, path, sl)
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	want := []Record{
		{FirstSeq: 100, Values: seriesBatch(100, 1, sl)},
		{FirstSeq: 101, Values: seriesBatch(101, 3, sl)},
		{FirstSeq: 104, Values: seriesBatch(104, 2, sl)},
	}
	for _, r := range want {
		if err := l.Append(r.FirstSeq, r.Values); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Records() != 3 || l.Series() != 6 {
		t.Fatalf("counters: %d records, %d series", l.Records(), l.Series())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := openT(t, path, sl)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].FirstSeq != want[i].FirstSeq {
			t.Fatalf("record %d seq %d, want %d", i, got[i].FirstSeq, want[i].FirstSeq)
		}
		if !floatsEqual(got[i].Values, want[i].Values) {
			t.Fatalf("record %d values differ", i)
		}
	}
	if l2.Records() != 3 || l2.Series() != 6 {
		t.Fatalf("recovered counters: %d records, %d series", l2.Records(), l2.Series())
	}
}

func TestWALRollbackUnlogsLastAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	const sl = 4
	l, _ := openT(t, path, sl)
	if err := l.Append(0, seriesBatch(0, 2, sl)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	before := l.Size()
	if err := l.Append(2, seriesBatch(2, 3, sl)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Rollback(before, 3); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if l.Size() != before {
		t.Fatalf("size %d after rollback, want %d", l.Size(), before)
	}
	if l.Records() != 1 || l.Series() != 2 {
		t.Fatalf("counters after rollback: %d records, %d series", l.Records(), l.Series())
	}
	// The log keeps working at the rolled-back boundary: a new record lands
	// where the undone one was, and recovery sees only the surviving frames.
	if err := l.Append(2, seriesBatch(7, 1, sl)); err != nil {
		t.Fatalf("Append after rollback: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, recs := openT(t, path, sl)
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if recs[1].FirstSeq != 2 || !floatsEqual(recs[1].Values, seriesBatch(7, 1, sl)) {
		t.Fatalf("recovered record 1 is not the post-rollback append")
	}

	// Implausible offsets are refused rather than corrupting the log.
	if err := l2.Rollback(4, 1); err == nil {
		t.Fatalf("Rollback below header accepted")
	}
	if err := l2.Rollback(l2.Size()+100, 1); err == nil {
		t.Fatalf("Rollback past tail accepted")
	}
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // bit-exact for the test values (no NaNs)
			return false
		}
	}
	return true
}

func TestWALTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	const sl = 4
	l, _ := openT(t, path, sl)
	for i := uint64(0); i < 3; i++ {
		if err := l.Append(i, seriesBatch(i, 1, sl)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	// Tear the tail at every byte boundary of a fourth record: recovery
	// must always yield exactly the three intact records and leave the log
	// appendable.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l4, _ := openT(t, path, sl)
	if err := l4.Append(3, seriesBatch(3, 1, sl)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l4.Close()
	withTail, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(full) + 1; cut < len(withTail); cut++ {
		if err := os.WriteFile(path, withTail[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lr, recs, err := Open(path, sl, SyncAlways, 0)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if len(recs) != 3 {
			t.Fatalf("cut=%d: recovered %d records, want 3", cut, len(recs))
		}
		// The torn bytes must be gone and the log must accept new appends.
		if err := lr.Append(3, seriesBatch(3, 1, sl)); err != nil {
			t.Fatalf("cut=%d: post-repair Append: %v", cut, err)
		}
		lr.Close()
		_, recs2, err := Open(path, sl, SyncAlways, 0)
		if err != nil || len(recs2) != 4 {
			t.Fatalf("cut=%d: reopen after repair: %d records, err %v", cut, len(recs2), err)
		}
	}
}

func TestWALAlienFiles(t *testing.T) {
	dir := t.TempDir()
	const sl = 4
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad-magic", append([]byte("NOTWAL"), make([]byte, 6)...), ErrMagic},
		{"bad-version", func() []byte {
			h := header(sl, nil)
			binary.LittleEndian.PutUint16(h[len(Magic):], 99)
			return h
		}(), ErrVersion},
		{"bad-serieslen", header(sl+1, nil), ErrSeriesLen},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, sl, SyncAlways, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	// A sub-header fragment is a torn creation, not an alien file.
	path := filepath.Join(dir, "torn-header")
	if err := os.WriteFile(path, []byte("HYD"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path, sl, SyncAlways, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("torn header: recs=%d err=%v", len(recs), err)
	}
	if err := l.Append(0, seriesBatch(0, 1, sl)); err != nil {
		t.Fatalf("append after header repair: %v", err)
	}
	l.Close()
}

// TestWALSequenceBreakStopsReplay: an intact frame that does not continue
// the sequence (here a duplicated record) is structural corruption, not a
// torn tail — the open fails typed and leaves the file alone, rather than
// keeping a prefix and silently truncating the rest away.
func TestWALSequenceBreakStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	const sl = 4
	l, _ := openT(t, path, sl)
	l.Append(0, seriesBatch(0, 2, sl))
	l.Append(2, seriesBatch(2, 1, sl))
	l.Close()
	data, _ := os.ReadFile(path)

	// Re-append the first frame verbatim: a duplicated sequence number.
	off := int64(headerLen)
	plen := binary.LittleEndian.Uint32(data[off:])
	dup := append(append([]byte{}, data...), data[off:off+4+int64(plen)+4]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, sl, SyncAlways, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a log with a duplicated record: %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, dup) {
		t.Fatal("failed open modified the file")
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	const sl = 4
	l, _ := openT(t, path, sl)
	l.Append(0, seriesBatch(0, 2, sl))
	if err := l.Truncate(); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if l.Records() != 0 || l.Series() != 0 {
		t.Fatalf("counters after truncate: %d/%d", l.Records(), l.Series())
	}
	// The log is still appendable after truncation.
	if err := l.Append(2, seriesBatch(2, 1, sl)); err != nil {
		t.Fatalf("Append after truncate: %v", err)
	}
	l.Close()
	_, recs, err := Open(path, sl, SyncAlways, 0)
	if err != nil || len(recs) != 1 || recs[0].FirstSeq != 2 {
		t.Fatalf("reopen after truncate: %d records, err %v", len(recs), err)
	}
}

func TestWALFaultpoints(t *testing.T) {
	const sl = 4
	t.Run("short-write", func(t *testing.T) {
		defer faultpoint.Reset()
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _ := openT(t, path, sl)
		l.Append(0, seriesBatch(0, 1, sl))
		faultpoint.ArmN(faultpoint.WALShortWrite, 1)
		err := l.Append(1, seriesBatch(1, 1, sl))
		if !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("want injected error, got %v", err)
		}
		// Self-repaired: the next append lands on a clean boundary.
		if err := l.Append(1, seriesBatch(1, 1, sl)); err != nil {
			t.Fatalf("append after short write: %v", err)
		}
		l.Close()
		_, recs, err := Open(path, sl, SyncAlways, 0)
		if err != nil || len(recs) != 2 {
			t.Fatalf("recovered %d records, err %v", len(recs), err)
		}
	})
	t.Run("torn-tail", func(t *testing.T) {
		defer faultpoint.Reset()
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _ := openT(t, path, sl)
		l.Append(0, seriesBatch(0, 1, sl))
		faultpoint.ArmN(faultpoint.WALTornTail, 1)
		if err := l.Append(1, seriesBatch(1, 1, sl)); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("want injected error, got %v", err)
		}
		l.Close()
		// The torn bytes stayed on disk; recovery truncates them away.
		lr, recs, err := Open(path, sl, SyncAlways, 0)
		if err != nil || len(recs) != 1 {
			t.Fatalf("recovered %d records, err %v", len(recs), err)
		}
		if err := lr.Append(1, seriesBatch(1, 1, sl)); err != nil {
			t.Fatalf("append after torn-tail repair: %v", err)
		}
		lr.Close()
	})
	t.Run("sync-error", func(t *testing.T) {
		defer faultpoint.Reset()
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _ := openT(t, path, sl)
		l.Append(0, seriesBatch(0, 1, sl))
		faultpoint.ArmN(faultpoint.WALSyncError, 1)
		if err := l.Append(1, seriesBatch(1, 1, sl)); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("want injected error, got %v", err)
		}
		if l.Records() != 1 {
			t.Fatalf("failed append counted: %d records", l.Records())
		}
		l.Close()
		_, recs, err := Open(path, sl, SyncAlways, 0)
		if err != nil || len(recs) != 1 {
			t.Fatalf("recovered %d records, err %v", len(recs), err)
		}
	})
	t.Run("slow-fsync", func(t *testing.T) {
		defer faultpoint.Reset()
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _ := openT(t, path, sl)
		faultpoint.ArmDelay(faultpoint.WALSlowFsync, 20*time.Millisecond)
		t0 := time.Now()
		if err := l.Append(0, seriesBatch(0, 1, sl)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if d := time.Since(t0); d < 20*time.Millisecond {
			t.Fatalf("append returned in %s, want >= 20ms delay", d)
		}
		l.Close()
	})
}

func TestWALSyncPolicies(t *testing.T) {
	const sl = 4
	t.Run("off", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _, err := Open(path, sl, SyncOff, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := l.Syncs()
		for i := uint64(0); i < 10; i++ {
			if err := l.Append(i, seriesBatch(i, 1, sl)); err != nil {
				t.Fatal(err)
			}
		}
		if l.Syncs() != before {
			t.Fatalf("SyncOff issued %d fsyncs", l.Syncs()-before)
		}
		l.Close()
	})
	t.Run("interval", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "t.wal")
		l, _, err := Open(path, sl, SyncInterval, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		before := l.Syncs()
		for i := uint64(0); i < 10; i++ {
			if err := l.Append(i, seriesBatch(i, 1, sl)); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Syncs() - before; got != 0 {
			t.Fatalf("hour interval issued %d fsyncs in a burst", got)
		}
		l.Close()
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		mode SyncMode
		d    time.Duration
		ok   bool
	}{
		{"", SyncAlways, 0, true},
		{"always", SyncAlways, 0, true},
		{"off", SyncOff, 0, true},
		{"250ms", SyncInterval, 250 * time.Millisecond, true},
		{"-1s", SyncAlways, 0, false},
		{"nonsense", SyncAlways, 0, false},
	} {
		mode, d, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok || mode != c.mode || d != c.d {
			t.Errorf("ParseSyncPolicy(%q) = %v,%v,%v; want %v,%v,ok=%v", c.in, mode, d, err, c.mode, c.d, c.ok)
		}
	}
}

// FuzzWALReplay feeds mutated log bytes into recovery, with the plain and
// the bound header, and asserts the contract: never a panic, never a record
// that fails validation (CRC, shape, contiguity), always termination, a
// failed open is typed and leaves the file byte-identical, and recovery is
// idempotent — a second open of the repaired file yields byte-identical
// records.
func FuzzWALReplay(f *testing.F) {
	const sl = 4
	bind := &Binding{BaseCount: 6, BaseFP: 0xfeedbeef}
	// Seed with a real three-record log plus targeted corruptions:
	// truncation, a bitflip, a spliced record and a duplicated sequence
	// number — then the same under a bound header, and each kind of file
	// opened as the other.
	seed, _ := threeRecords(f, filepath.Join(f.TempDir(), "seed.wal"), sl, nil)
	f.Add(seed, false)
	f.Add(seed[:len(seed)-5], false)
	flip := append([]byte{}, seed...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip, false)
	var off = int64(headerLen)
	plen := binary.LittleEndian.Uint32(seed[off:])
	frame := seed[off : off+4+int64(plen)+4]
	f.Add(append(append([]byte{}, seed...), frame...), false) // duplicated seq
	f.Add(append(append([]byte{}, seed[:off]...), frame[4:]...), false)
	f.Add([]byte{}, false)
	f.Add([]byte("HYDWAL"), false)
	bound, _ := threeRecords(f, filepath.Join(f.TempDir(), "seed.ckpt"), sl, bind)
	f.Add(bound, true)
	f.Add(bound[:len(bound)-5], true)
	f.Add(bound[:headerLen+3], true) // torn inside the binding
	flip = append([]byte{}, bound...)
	flip[headerLen+2] ^= 0x01 // another base
	f.Add(flip, true)
	flip = append([]byte{}, bound...)
	flip[len(flip)-3] ^= 0x40 // damage in the last frame only: a torn tail
	f.Add(flip, true)
	f.Add(seed, true)
	f.Add(bound, false)
	f.Add([]byte("HYDIDX\x01\x00legacy persist envelope"), true)

	f.Fuzz(func(t *testing.T, data []byte, bound bool) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var b *Binding
		hdr := headerLen
		if bound {
			b, hdr = bind, headerLen+bindingLen
		}
		l1, recs, err := Recover(path, sl, b, SyncAlways, 0)
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			t.Fatalf("Recover modified the file (read error %v)", rerr)
		}
		if err != nil {
			// Alien or damaged file: fine, as long as it is typed.
			typed := false
			for _, want := range []error{ErrMagic, ErrVersion, ErrSeriesLen, ErrBinding, ErrCorrupt} {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		if err := l1.Repair(); err != nil {
			t.Fatalf("Repair: %v", err)
		}
		// Every recovered record must validate: shape and contiguity.
		for i, r := range recs {
			if len(r.Values) == 0 || len(r.Values)%sl != 0 {
				t.Fatalf("record %d has %d values", i, len(r.Values))
			}
			if i > 0 {
				prev := recs[i-1]
				if r.FirstSeq != prev.FirstSeq+uint64(len(prev.Values)/sl) {
					t.Fatalf("record %d breaks contiguity", i)
				}
			} else if bound && r.FirstSeq != bind.BaseCount {
				t.Fatalf("bound log starts at %d, base has %d", r.FirstSeq, bind.BaseCount)
			}
		}
		l1.Close()
		// Idempotence: the repaired file recovers identically, and no
		// further repair is pending.
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l2, recs2, err := Recover(path, sl, b, SyncAlways, 0)
		if err != nil {
			t.Fatalf("reopen of repaired log failed: %v", err)
		}
		if err := l2.Repair(); err != nil {
			t.Fatalf("second Repair: %v", err)
		}
		defer l2.Close()
		if again, _ := os.ReadFile(path); !bytes.Equal(again, repaired) || l2.Size() != int64(len(repaired)) {
			t.Fatalf("repaired log of %d bytes was repaired again (Size %d)", len(repaired), l2.Size())
		}
		if len(recs2) != len(recs) {
			t.Fatalf("reopen recovered %d records, first pass %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].FirstSeq != recs[i].FirstSeq || !floatsEqual(recs2[i].Values, recs[i].Values) {
				t.Fatalf("record %d differs across recoveries", i)
			}
		}
		// CRC integrity: any record the replay applied must carry a valid
		// frame in the repaired file.
		off := int64(hdr)
		for i := range recs2 {
			plen := binary.LittleEndian.Uint32(repaired[off:])
			payload := repaired[off+4 : off+4+int64(plen)]
			sum := binary.LittleEndian.Uint32(repaired[off+4+int64(plen):])
			if crc32.ChecksumIEEE(payload) != sum {
				t.Fatalf("record %d survived with a bad CRC", i)
			}
			off += 4 + int64(plen) + 4
		}
	})
}
