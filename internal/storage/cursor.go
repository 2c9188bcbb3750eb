package storage

import (
	"hydra/internal/faultpoint"
	"hydra/internal/series"
)

// Cursor is one reader's view of a SeriesFile: its own read position and
// its own record of the accesses made through it. A query makes a cursor
// on its stack, charges every read to it in
// plain fields and flushes the record once, at the end, so concurrent
// queries share no cursor and no counter on the per-series read path. A
// cursor pins the file's published (arena, count) when it is made and reads
// that extent, whatever is appended meanwhile. Reads are charged by the
// paper's §4.2 rule: a read that continues the previous one is sequential,
// any other is a seek. A Cursor is not safe for concurrent use; distinct
// cursors over one file are.
type Cursor struct {
	st     fileState
	length int
	lo, hi int
	next   int // series a sequential read would hit next; -1 before the first read
	io     Snapshot
	c      *Counters
}

// Cursor returns a cursor over the whole published file, positioned at
// series 0, with an empty record.
func (f *SeriesFile) Cursor() Cursor {
	st := *f.state.Load()
	return Cursor{st: st, length: f.length, hi: st.count, c: f.c}
}

// Slice returns a fresh cursor over series [lo, hi) of the same pinned
// extent, with an empty record: a reader of one range of the file. It is
// positioned at lo only when lo is 0, where a whole-file cursor starts, so p
// readers tiling the file charge one seek each except the first.
func (cur *Cursor) Slice(lo, hi int) Cursor {
	if lo < cur.lo || hi > cur.hi || lo > hi {
		panic("storage: cursor slice out of bounds")
	}
	next := -1
	if lo == 0 {
		next = 0
	}
	return Cursor{st: cur.st, length: cur.length, lo: lo, hi: hi, next: next, c: cur.c}
}

// Len returns the number of series in the cursor's range.
func (cur *Cursor) Len() int { return cur.hi - cur.lo }

// Read returns series i, charging a sequential access if i continues the
// cursor's previous read and a seek otherwise.
func (cur *Cursor) Read(i int) series.Series {
	if i < cur.lo || i >= cur.hi {
		panic("storage: cursor read out of bounds")
	}
	n := int64(cur.length) * BytesPerValue
	if i == cur.next {
		cur.io.SeqOps++
		cur.io.SeqBytes += n
	} else {
		cur.io.RandOps++
		cur.io.RandBytes += n
	}
	cur.next = i + 1
	return cur.st.at(i, cur.length)
}

// ReadRun returns the values of series [i, i+n) as one flat view (stride
// SeriesLen) and charges exactly what Read(i), Read(i+1), …, Read(i+n-1)
// would: the first read is sequential if it continues the cursor's previous
// one and a seek otherwise, the other n-1 are sequential. The scan's run
// kernel walks the view in one call. An empty run charges nothing and does
// not move the cursor.
func (cur *Cursor) ReadRun(i, n int) []float32 {
	if i < cur.lo || n < 0 || n > cur.hi-i {
		panic("storage: cursor run out of bounds")
	}
	if n == 0 {
		return nil
	}
	b := int64(cur.length) * BytesPerValue
	seq := int64(n)
	if i != cur.next {
		cur.io.RandOps++
		cur.io.RandBytes += b
		seq--
	}
	cur.io.SeqOps += seq
	cur.io.SeqBytes += seq * b
	cur.next = i + n
	lo, hi := i*cur.length, (i+n)*cur.length
	return cur.st.arena[lo:hi:hi]
}

// Range returns the values of series [lo, hi) as one flat view (stride
// SeriesLen), charged as one sequential transfer of the whole range,
// preceded by one zero-byte seek when the cursor is not at lo: the bytes
// always count as one sequential operation, never as per-series random
// transfers. Block scans that stream values (MASS) read through it.
func (cur *Cursor) Range(lo, hi int) []float32 {
	if lo < cur.lo || hi > cur.hi || lo > hi {
		panic("storage: cursor range read out of bounds")
	}
	faultpoint.Delay(faultpoint.StorageSlowRead)
	if lo != cur.next {
		cur.io.RandOps++ // the seek repositioning the head
	}
	cur.io.SeqOps++
	cur.io.SeqBytes += int64(hi-lo) * int64(cur.length) * BytesPerValue
	cur.next = hi
	return cur.st.arena[lo*cur.length : hi*cur.length : hi*cur.length]
}

// Peek returns series i without charging anything: the members of a leaf
// whose access Leaf charged once.
func (cur *Cursor) Peek(i int) series.Series {
	if i < cur.lo || i >= cur.hi {
		panic("storage: cursor peek out of bounds")
	}
	return cur.st.at(i, cur.length)
}

// Leaf charges one leaf access: a seek plus the transfer of nSeries series.
// The position does not move, because leaves live in index files, not in
// the raw file.
func (cur *Cursor) Leaf(nSeries int) {
	cur.ChargeRand(int64(nSeries) * int64(cur.length) * BytesPerValue)
}

// ChargeSeq records a sequential read of n bytes from a file beside the raw
// one (a filter file, a level file); the position does not move.
func (cur *Cursor) ChargeSeq(n int64) {
	cur.io.SeqOps++
	cur.io.SeqBytes += n
}

// ChargeRand records a random read (one seek) of n bytes from a file beside
// the raw one; the position does not move.
func (cur *Cursor) ChargeRand(n int64) {
	cur.io.RandOps++
	cur.io.RandBytes += n
}

// Flush adds the cursor's record to the file's Counters — the one shared
// write a reader makes — and returns it. The record is empty afterwards, so
// a second Flush adds nothing; an empty record touches no shared counter.
func (cur *Cursor) Flush() Snapshot {
	s := cur.io
	cur.io = Snapshot{}
	if s != (Snapshot{}) {
		cur.c.Add(s)
	}
	return s
}
