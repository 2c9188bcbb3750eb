package storage

import (
	"sync"
	"testing"
)

// tile splits a whole-file cursor into p contiguous worker cursors the way
// the parallel scan does: worker w reads [w*n/p, (w+1)*n/p).
func tile(cur *Cursor, p int) []Cursor {
	n := cur.Len()
	p = min(p, n)
	out := make([]Cursor, 0, p)
	for w := 0; w < p; w++ {
		out = append(out, cur.Slice(w*n/p, (w+1)*n/p))
	}
	return out
}

// TestShardsPartition: the shards of a parallel scan — one Slice per worker
// — must tile [0, Len) contiguously, in order, with no empty shard.
func TestShardsPartition(t *testing.T) {
	f, _ := makeFile(103, 4)
	whole := f.Cursor()
	if whole.Lo() != 0 || whole.Hi() != 103 || whole.Len() != 103 {
		t.Fatalf("whole-file cursor [%d,%d) len %d", whole.Lo(), whole.Hi(), whole.Len())
	}
	for _, p := range []int{1, 2, 3, 4, 7, 64, 103, 500} {
		shards := tile(&whole, p)
		if len(shards) != min(p, 103) {
			t.Fatalf("p=%d: got %d shards, want %d", p, len(shards), min(p, 103))
		}
		next := 0
		for i, sh := range shards {
			if sh.Lo() != next {
				t.Errorf("p=%d: shard %d starts at %d, want %d", p, i, sh.Lo(), next)
			}
			if sh.Len() <= 0 {
				t.Errorf("p=%d: shard %d is empty", p, i)
			}
			next = sh.Hi()
		}
		if next != 103 {
			t.Errorf("p=%d: coverage ends at %d, want 103", p, next)
		}
	}
	empty := NewSeriesFile(nil, &Counters{})
	if cur := empty.Cursor(); cur.Len() != 0 {
		t.Errorf("cursor over empty file has %d series", cur.Len())
	}
}

// TestShardedScanAccounting is the paper's §4.2 invariant under sharding: a
// full scan split over p shards must move exactly the file size, as
// sequential transfers except one initial seek per shard (none for the shard
// that starts at offset zero) — and the flushed records are all the
// Counters see.
func TestShardedScanAccounting(t *testing.T) {
	const n, l = 103, 7
	for _, p := range []int{1, 2, 3, 4, 8, 103, 200} {
		f, c := makeFile(n, l)
		whole := f.Cursor()
		shards := tile(&whole, p)
		var sum Snapshot
		for i := range shards {
			sh := &shards[i]
			for j := sh.Lo(); j < sh.Hi(); j++ {
				sh.Read(j)
			}
			sum = sum.Add(sh.Flush())
		}
		snap := c.Snapshot()
		if snap != sum {
			t.Errorf("p=%d: counters %v, flushed records %v", p, snap, sum)
		}
		if snap.TotalBytes() != f.SizeBytes() {
			t.Errorf("p=%d: moved %d bytes, want file size %d", p, snap.TotalBytes(), f.SizeBytes())
		}
		wantRand := int64(len(shards) - 1) // shard 0 starts sequential
		if snap.RandOps != wantRand {
			t.Errorf("p=%d: %d random ops, want %d", p, snap.RandOps, wantRand)
		}
		if wantSeq := int64(n) - wantRand; snap.SeqOps != wantSeq {
			t.Errorf("p=%d: %d sequential ops, want %d", p, snap.SeqOps, wantSeq)
		}
	}
}

// TestShardSkipsChargeSeeks: a skip inside a shard behaves like one in a
// whole-file scan — the skipped-to read is a seek, continuations are
// sequential.
func TestShardSkipsChargeSeeks(t *testing.T) {
	f, _ := makeFile(20, 2)
	whole := f.Cursor()
	sh := whole.Slice(10, 20) // unpositioned
	sh.Read(10)               // first touch: seek
	sh.Read(11)               // continues: seq
	sh.Read(15)               // skip: seek
	sh.Read(16)               // continues: seq
	if rec := sh.Flush(); rec.RandOps != 2 || rec.SeqOps != 2 {
		t.Errorf("record %v, want 2 random and 2 sequential ops", rec)
	}
}

// TestShardBounds: accesses outside a cursor's range must panic rather than
// silently touching another worker's region or series past the pinned end.
func TestShardBounds(t *testing.T) {
	f, _ := makeFile(10, 2)
	whole := f.Cursor()
	sh := whole.Slice(0, 5)
	for _, bad := range []func(){
		func() { sh.Read(5) },
		func() { sh.Read(-1) },
		func() { sh.Peek(7) },
		func() { sh.Range(3, 6) },
		func() { sh.Slice(4, 6) },
		func() { whole.Read(10) },
		func() { whole.Slice(-1, 3) },
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

// TestShardsConcurrent: concurrent full scans over disjoint shards of one
// file must be race-free (run under -race) and lose no charges.
func TestShardsConcurrent(t *testing.T) {
	const n, l, p = 400, 8, 8
	f, c := makeFile(n, l)
	whole := f.Cursor()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(sh Cursor) {
			defer wg.Done()
			for i := sh.Lo(); i < sh.Hi(); i++ {
				sh.Read(i)
			}
			sh.Flush()
		}(whole.Slice(w*n/p, (w+1)*n/p))
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.TotalBytes() != f.SizeBytes() {
		t.Errorf("moved %d bytes, want %d", snap.TotalBytes(), f.SizeBytes())
	}
	if snap.RandOps != p-1 {
		t.Errorf("RandOps=%d want %d", snap.RandOps, p-1)
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
}

// TestReadRunChargesLikeReads: a run of n series charges exactly the record
// of n Read calls in order — at the cursor's position (all sequential), away
// from it (one seek, then sequential), on a fresh shard and after an earlier
// run — moves the cursor the same, and returns the same values.
func TestReadRunChargesLikeReads(t *testing.T) {
	const n, l = 40, 3
	f, _ := makeFile(n, l)
	cases := []struct {
		name   string
		lo, hi int   // the cursor's range
		prior  []int // series read before the run
		i, cnt int   // the run
	}{
		{"at position 0", 0, n, nil, 0, 17},
		{"continuing a read", 0, n, []int{4}, 5, 10},
		{"after a skip", 0, n, []int{4}, 9, 10},
		{"fresh shard", 12, 30, nil, 12, 18},
		{"fresh shard, inside", 12, 30, nil, 20, 3},
		{"one series away", 0, n, []int{7, 8}, 30, 1},
		{"empty", 0, n, []int{2}, 9, 0},
	}
	for _, tc := range cases {
		whole, ref := f.Cursor(), f.Cursor()
		run, reads := whole.Slice(tc.lo, tc.hi), ref.Slice(tc.lo, tc.hi)
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
		if next := tc.i + tc.cnt; next < tc.hi {
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
