package storage

import (
	"testing"
	"time"

	"hydra/internal/series"
)

func makeFile(n, l int) (*SeriesFile, *Counters) {
	data := make([]series.Series, n)
	for i := range data {
		s := make(series.Series, l)
		for j := range s {
			s[j] = float32(i*l + j)
		}
		data[i] = s
	}
	c := &Counters{}
	return NewSeriesFile(data, c), c
}

// TestSequentialVsRandomCharging: a cursor charges a read that continues its
// previous one as sequential and any other as a seek, in its own record;
// the file's Counters see the record only when it is flushed.
func TestSequentialVsRandomCharging(t *testing.T) {
	f, c := makeFile(10, 4)
	cur := f.Cursor()
	cur.Read(0) // first read from position 0: sequential
	cur.Read(1) // continues: sequential
	cur.Read(5) // skip: random
	cur.Read(6) // continues: sequential
	cur.Read(2) // backwards: random
	if got := c.Snapshot(); got != (Snapshot{}) {
		t.Errorf("counters moved before the flush: %v", got)
	}
	rec := cur.Flush()
	if rec.SeqOps != 3 || rec.RandOps != 2 {
		t.Errorf("record %v, want 3 sequential and 2 random ops", rec)
	}
	wantBytes := int64(5 * 4 * BytesPerValue)
	if rec.TotalBytes() != wantBytes {
		t.Errorf("TotalBytes=%d want %d", rec.TotalBytes(), wantBytes)
	}
	if got := c.Snapshot(); got != rec {
		t.Errorf("counters %v after the flush, want the record %v", got, rec)
	}
	if again := cur.Flush(); again != (Snapshot{}) || c.Snapshot() != rec {
		t.Errorf("second flush returned %v and left counters %v", again, c.Snapshot())
	}
}

// TestReadRange pins Cursor.Range, the range read: a view of exactly the
// range's values, sequential while ranges continue one another, one seek
// when they do not.
func TestReadRange(t *testing.T) {
	f, _ := makeFile(10, 4)
	cur := f.Cursor()
	block := cur.Range(0, 5)
	if len(block) != 5*4 || block[len(block)-1] != 5*4-1 {
		t.Fatalf("block %v", block)
	}
	if cur.io.SeqOps != 1 || cur.io.SeqBytes != 5*4*BytesPerValue {
		t.Errorf("range read miscounted: %v", cur.io)
	}
	cur.Range(5, 10) // continues
	if cur.io.SeqOps != 2 || cur.io.RandOps != 0 {
		t.Errorf("contiguous range read should stay sequential: %v", cur.io)
	}
	cur.Range(0, 2) // seek back
	if cur.io.RandOps != 1 {
		t.Errorf("backwards range read should seek: %v", cur.io)
	}
}

// TestReadRangeChargesOneSequentialOp pins Range's charge model: a range is
// always exactly one sequential transfer of its bytes, plus one zero-byte
// seek when the cursor was elsewhere — never per-series random transfers,
// and never range bytes drifting into the random-byte column.
func TestReadRangeChargesOneSequentialOp(t *testing.T) {
	f, _ := makeFile(10, 4)
	cur := f.Cursor()
	cur.Range(0, 5) // cursor at 0: pure sequential
	if got := cur.Flush(); got != (Snapshot{SeqOps: 1, SeqBytes: 5 * 4 * BytesPerValue}) {
		t.Fatalf("aligned range: %v", got)
	}
	cur.Range(2, 7) // cursor at 5: one seek, then one sequential transfer
	want := Snapshot{SeqOps: 1, SeqBytes: 5 * 4 * BytesPerValue, RandOps: 1, RandBytes: 0}
	if got := cur.Flush(); got != want {
		t.Fatalf("misaligned range: %v want %v", got, want)
	}
	cur.Range(7, 10) // continues: sequential again, no seek
	if got := cur.Flush(); got != (Snapshot{SeqOps: 1, SeqBytes: 3 * 4 * BytesPerValue}) {
		t.Fatalf("continuing range: %v", got)
	}
	// The simulated time of a misaligned range equals seek + transfer —
	// bytes never pay the seek latency twice.
	cur.Range(0, 10)
	if got, wantT := cur.Flush().IOTime(HDD), HDD.IOTime(1, 10*4*BytesPerValue); got != wantT {
		t.Fatalf("IO time %v want %v", got, wantT)
	}
}

func TestReadRangeBounds(t *testing.T) {
	f, _ := makeFile(4, 2)
	cur := f.Cursor()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for out-of-bounds range")
		}
	}()
	cur.Range(2, 9)
}

func TestPeekChargesNothing(t *testing.T) {
	f, c := makeFile(5, 3)
	f.Peek(4)
	cur := f.Cursor()
	cur.Peek(4)
	if rec := cur.Flush(); rec != (Snapshot{}) || c.Snapshot() != (Snapshot{}) {
		t.Errorf("Peek must be free: record %v, counters %v", rec, c.Snapshot())
	}
}

// TestChargeHelpers: the build's full-scan charge goes to the Counters
// directly; a leaf access and side-file reads go to the cursor's record and
// leave its position alone.
func TestChargeHelpers(t *testing.T) {
	f, c := makeFile(6, 2)
	f.ChargeFullScan()
	if c.Snapshot().SeqBytes != f.SizeBytes() {
		t.Errorf("full scan bytes %d want %d", c.Snapshot().SeqBytes, f.SizeBytes())
	}
	cur := f.Cursor()
	cur.Leaf(3)
	if cur.io != (Snapshot{RandOps: 1, RandBytes: 3 * f.SeriesBytes()}) {
		t.Errorf("leaf read should be one seek of 3 series: %v", cur.io)
	}
	cur.ChargeSeq(100)
	cur.ChargeRand(10)
	cur.Read(0) // the position is still 0: sequential
	want := Snapshot{SeqOps: 2, SeqBytes: 100 + f.SeriesBytes(), RandOps: 2, RandBytes: 3*f.SeriesBytes() + 10}
	if got := cur.Flush(); got != want {
		t.Errorf("record %v, want %v", got, want)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	a := Snapshot{SeqOps: 5, SeqBytes: 100, RandOps: 2, RandBytes: 10}
	b := Snapshot{SeqOps: 3, SeqBytes: 60, RandOps: 1, RandBytes: 5}
	d := a.Sub(b)
	if d.SeqOps != 2 || d.SeqBytes != 40 || d.RandOps != 1 || d.RandBytes != 5 {
		t.Errorf("Sub wrong: %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Errorf("Add(Sub) != original: %+v", s)
	}
	if a.TotalBytes() != 110 {
		t.Errorf("TotalBytes=%d", a.TotalBytes())
	}
	if a.String() == "" {
		t.Errorf("String empty")
	}
}

func TestDeviceIOTime(t *testing.T) {
	// 1 seek + 1.29 MB on the paper's HDD: 5ms + 1ms = 6ms.
	d := DeviceProfile{Name: "test", SeekLatency: 5 * time.Millisecond, ThroughputMBps: 1290}
	got := d.IOTime(1, 1290*1000)
	want := 6 * time.Millisecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("IOTime=%v want %v", got, want)
	}
	// The SSD must beat the HDD on seek-heavy workloads and lose on pure
	// sequential throughput — the paper's central hardware observation.
	seekHeavy := Snapshot{RandOps: 10000, RandBytes: 1 << 20}
	seqHeavy := Snapshot{SeqOps: 1, SeqBytes: 10 << 30}
	if seekHeavy.IOTime(SSD) >= seekHeavy.IOTime(HDD) {
		t.Errorf("SSD should win on random I/O")
	}
	if seqHeavy.IOTime(HDD) >= seqHeavy.IOTime(SSD) {
		t.Errorf("HDD (RAID0) should win on sequential throughput")
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.seqOps.Store(0)
	c.seqBytes.Store(0)
	c.randOps.Store(0)
	c.randBytes.Store(0)
}

func TestCountersReset(t *testing.T) {
	c := &Counters{}
	c.ChargeSeq(100)
	c.ChargeRand(10)
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Errorf("Reset left counters: %v", c.Snapshot())
	}
	c.Add(Snapshot{SeqOps: 1, SeqBytes: 2, RandOps: 3, RandBytes: 4})
	if c.Snapshot() != (Snapshot{SeqOps: 1, SeqBytes: 2, RandOps: 3, RandBytes: 4}) {
		t.Errorf("Add recorded %v", c.Snapshot())
	}
	var nilC *Counters
	nilC.ChargeSeq(1) // must not panic
	nilC.ChargeRand(1)
	nilC.Add(Snapshot{SeqOps: 1})
}

func TestNewSeriesFileValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for ragged series")
		}
	}()
	NewSeriesFile([]series.Series{{1, 2}, {1}}, &Counters{})
}
