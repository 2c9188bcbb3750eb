package storage

import (
	"sync"
	"testing"
)

// TestCursorBounds: accesses outside the pinned extent must panic rather
// than touch series past its end.
func TestCursorBounds(t *testing.T) {
	f, _ := makeFile(5, 2)
	cur := f.Cursor()
	for _, bad := range []func(){
		func() { cur.Read(5) },
		func() { cur.Read(-1) },
		func() { cur.Peek(7) },
		func() { cur.Peek(-1) },
		func() { cur.Range(3, 6) },
		func() { cur.Range(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			bad()
		}()
	}
}

// TestSerialCursorConcurrentReadsRaceFree: goroutines scanning the whole
// file at once, each through its own cursor, must be race-free (run under
// -race) and each must record exactly a serial scan — the file size, all of
// it sequential — while the Counters sum the records.
func TestSerialCursorConcurrentReadsRaceFree(t *testing.T) {
	const n, l, workers = 200, 4, 8
	f, c := makeFile(n, l)
	recs := make([]Snapshot, workers)
	var wg sync.WaitGroup
	for w := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := f.Cursor()
			for i := 0; i < cur.Len(); i++ {
				cur.Read(i)
			}
			recs[w] = cur.Flush()
		}()
	}
	wg.Wait()
	serial := Snapshot{SeqOps: n, SeqBytes: f.SizeBytes()}
	for w, rec := range recs {
		if rec != serial {
			t.Errorf("worker %d recorded %v, want the serial scan %v", w, rec, serial)
		}
	}
	if snap, want := c.Snapshot(), (Snapshot{SeqOps: workers * n, SeqBytes: workers * f.SizeBytes()}); snap != want {
		t.Errorf("counters %v, want %v", snap, want)
	}
}

// TestCursorPinsExtent: a cursor reads the extent published when it was
// made, whatever is appended afterwards; a new cursor sees the new extent.
func TestCursorPinsExtent(t *testing.T) {
	f, _ := makeFile(3, 4)
	cur := f.Cursor()
	f.Append(make([]float32, 2*4))
	if cur.Len() != 3 {
		t.Errorf("pinned cursor grew to %d series", cur.Len())
	}
	if next := f.Cursor(); next.Len() != 5 {
		t.Errorf("new cursor has %d series, want 5", next.Len())
	}
	if got := cur.Read(2)[0]; got != 8 {
		t.Errorf("pinned read returned %v, want 8", got)
	}
	empty := NewSeriesFile(nil, &Counters{})
	if cur := empty.Cursor(); cur.Len() != 0 {
		t.Errorf("cursor over empty file has %d series", cur.Len())
	}
}

// TestReadRunChargesLikeReads: a run of n series charges exactly the record
// of n Read calls in order — at the cursor's position (all sequential), away
// from it (one seek, then sequential), on a fresh cursor and after an
// earlier read — moves the cursor the same, and returns the same values.
func TestReadRunChargesLikeReads(t *testing.T) {
	const n, l = 40, 3
	f, _ := makeFile(n, l)
	cases := []struct {
		name   string
		prior  []int // series read before the run
		i, cnt int   // the run
	}{
		{"at position 0", nil, 0, 17},
		{"continuing a read", []int{4}, 5, 10},
		{"after a skip", []int{4}, 9, 10},
		{"fresh cursor, away from 0", nil, 12, 18},
		{"fresh cursor, to the end", nil, 20, n - 20},
		{"one series away", []int{7, 8}, 30, 1},
		{"empty", []int{2}, 9, 0},
	}
	for _, tc := range cases {
		run, reads := f.Cursor(), f.Cursor()
		for _, i := range tc.prior {
			run.Read(i)
			reads.Read(i)
		}
		vals := run.ReadRun(tc.i, tc.cnt)
		for r := 0; r < tc.cnt; r++ {
			s := reads.Read(tc.i + r)
			for j := range s {
				if vals[r*l+j] != s[j] {
					t.Fatalf("%s: run value [%d][%d] = %v, Read %v", tc.name, r, j, vals[r*l+j], s[j])
				}
			}
		}
		if len(vals) != tc.cnt*l {
			t.Errorf("%s: run of %d series returned %d values", tc.name, tc.cnt, len(vals))
		}
		// The next read tells where each cursor stands.
		if next := tc.i + tc.cnt; next < n {
			run.Read(next)
			reads.Read(next)
		}
		if got, want := run.Flush(), reads.Flush(); got != want {
			t.Errorf("%s: run charged %v, reads %v", tc.name, got, want)
		}
	}
	whole := f.Cursor()
	for _, bad := range []func(){
		func() { whole.ReadRun(n-2, 3) },
		func() { whole.ReadRun(-1, 1) },
		func() { whole.ReadRun(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on an out-of-range run")
				}
			}()
			bad()
		}()
	}
}
