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

func TestSequentialVsRandomCharging(t *testing.T) {
	f, c := makeFile(10, 4)
	f.Read(0) // first read from position 0: sequential
	f.Read(1) // continues: sequential
	f.Read(5) // skip: random
	f.Read(6) // continues: sequential
	f.Read(2) // backwards: random
	if got := c.SeqOps(); got != 3 {
		t.Errorf("SeqOps=%d want 3", got)
	}
	if got := c.RandOps(); got != 2 {
		t.Errorf("RandOps=%d want 2", got)
	}
	wantBytes := int64(5 * 4 * BytesPerValue)
	if got := c.TotalBytes(); got != wantBytes {
		t.Errorf("TotalBytes=%d want %d", got, wantBytes)
	}
}

func TestRewindMakesScanSequential(t *testing.T) {
	f, c := makeFile(8, 2)
	f.Read(3)
	f.Rewind()
	for i := 0; i < 8; i++ {
		f.Read(i)
	}
	// Read(3) seq (from pos 0? no: first read at 0 expected; read 3 is a
	// skip => rand), then after rewind reads 0..7: read 0 continues from
	// nextSeq=0 => seq.
	if got := c.RandOps(); got != 1 {
		t.Errorf("RandOps=%d want 1", got)
	}
	if got := c.SeqOps(); got != 8 {
		t.Errorf("SeqOps=%d want 8", got)
	}
}

// TestReadRange pins FlatRange, the file's range read: a view of exactly
// the range's values, sequential while ranges continue one another, one
// seek when they do not.
func TestReadRange(t *testing.T) {
	f, c := makeFile(10, 4)
	block := f.FlatRange(0, 5)
	if len(block) != 5*4 || block[len(block)-1] != 5*4-1 {
		t.Fatalf("block %v", block)
	}
	if c.SeqOps() != 1 || c.SeqBytes() != 5*4*BytesPerValue {
		t.Errorf("range read miscounted: %v", c.Snapshot())
	}
	f.FlatRange(5, 10) // continues
	if c.SeqOps() != 2 || c.RandOps() != 0 {
		t.Errorf("contiguous range read should stay sequential: %v", c.Snapshot())
	}
	f.FlatRange(0, 2) // seek back
	if c.RandOps() != 1 {
		t.Errorf("backwards range read should seek: %v", c.Snapshot())
	}
}

// TestReadRangeChargesOneSequentialOp pins FlatRange's charge model: a
// range is always exactly one sequential transfer of its bytes, plus one
// zero-byte seek when the cursor was elsewhere — never per-series random
// transfers, and never range bytes drifting into the random-byte column.
func TestReadRangeChargesOneSequentialOp(t *testing.T) {
	f, c := makeFile(10, 4)
	f.FlatRange(0, 5) // cursor at 0: pure sequential
	if got := c.Snapshot(); got != (Snapshot{SeqOps: 1, SeqBytes: 5 * 4 * BytesPerValue}) {
		t.Fatalf("aligned range: %v", got)
	}
	c.Reset()
	f.FlatRange(2, 7) // cursor at 5: one seek, then one sequential transfer
	want := Snapshot{SeqOps: 1, SeqBytes: 5 * 4 * BytesPerValue, RandOps: 1, RandBytes: 0}
	if got := c.Snapshot(); got != want {
		t.Fatalf("misaligned range: %v want %v", got, want)
	}
	c.Reset()
	f.FlatRange(7, 10) // continues: sequential again, no seek
	if got := c.Snapshot(); got != (Snapshot{SeqOps: 1, SeqBytes: 3 * 4 * BytesPerValue}) {
		t.Fatalf("continuing range: %v", got)
	}
	// The simulated time of a misaligned range equals seek + transfer —
	// bytes never pay the seek latency twice.
	c.Reset()
	f.FlatRange(0, 10)
	if got, wantT := c.Snapshot().IOTime(HDD), HDD.IOTime(1, 10*4*BytesPerValue); got != wantT {
		t.Fatalf("IO time %v want %v", got, wantT)
	}
}

func TestReadRangeBounds(t *testing.T) {
	f, _ := makeFile(4, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for out-of-bounds range")
		}
	}()
	f.FlatRange(2, 9)
}

func TestPeekChargesNothing(t *testing.T) {
	f, c := makeFile(5, 3)
	f.Peek(4)
	if c.TotalBytes() != 0 || c.SeqOps() != 0 || c.RandOps() != 0 {
		t.Errorf("Peek must be free: %v", c.Snapshot())
	}
}

func TestChargeHelpers(t *testing.T) {
	f, c := makeFile(6, 2)
	f.ChargeFullScan()
	if c.SeqBytes() != f.SizeBytes() {
		t.Errorf("full scan bytes %d want %d", c.SeqBytes(), f.SizeBytes())
	}
	before := c.RandOps()
	f.ChargeLeafRead(3)
	if c.RandOps() != before+1 {
		t.Errorf("leaf read should be one seek")
	}
	if c.RandBytes() != 3*f.SeriesBytes() {
		t.Errorf("leaf read bytes %d want %d", c.RandBytes(), 3*f.SeriesBytes())
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

func TestCountersReset(t *testing.T) {
	c := &Counters{}
	c.ChargeSeq(100)
	c.ChargeRand(10)
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Errorf("Reset left counters: %v", c.Snapshot())
	}
	var nilC *Counters
	nilC.ChargeSeq(1) // must not panic
	nilC.ChargeRand(1)
}

func TestNewSeriesFileValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for ragged series")
		}
	}()
	NewSeriesFile([]series.Series{{1, 2}, {1}}, &Counters{})
}
