// Package storage provides the simulated disk substrate for the benchmark
// suite.
//
// The paper evaluates methods on 25 GB – 1 TB on-disk datasets and reports,
// besides wall-clock time, the number of sequential and random disk accesses
// (its Figure 4), noting that these counts "provide a good insight into the
// actual performance of indexes". Running terabyte experiments is not
// possible here, so the suite holds (scaled-down) datasets in memory behind
// this layer, which charges every access to explicit counters:
//
//   - a sequential operation is a contiguous read following the previous one;
//   - a random operation is a seek: a leaf access for tree indexes, a skip
//     for the skip-sequential methods (ADS+, VA+file), exactly the
//     convention of §4.2 ("one random disk access corresponds to one leaf
//     access for all indexes, except ... ADS+, for which one random disk
//     access corresponds to one skip").
//
// Counter totals are converted to simulated I/O time using device profiles
// modeled after the paper's two servers (HDD: 1290 MB/s sequential RAID0;
// SSD: 330 MB/s but far cheaper seeks), which reproduces the paper's
// hardware-dependent rankings deterministically, independent of Go GC noise.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/series"
)

// DeviceProfile converts counted I/O into simulated time.
type DeviceProfile struct {
	Name string
	// SeekLatency is charged once per random operation.
	SeekLatency time.Duration
	// ThroughputMBps is the sequential read bandwidth in MB/s (1 MB = 1e6
	// bytes) charged per byte moved (random or sequential).
	ThroughputMBps float64
}

// The two evaluation platforms of the paper (§4.1). Seek latencies are
// representative figures for the stated hardware: ~5 ms for a 10K RPM SAS
// RAID0 array, ~60 µs for a SATA SSD.
var (
	HDD = DeviceProfile{Name: "HDD", SeekLatency: 5 * time.Millisecond, ThroughputMBps: 1290}
	SSD = DeviceProfile{Name: "SSD", SeekLatency: 60 * time.Microsecond, ThroughputMBps: 330}
)

// IOTime returns the simulated I/O time for the given access totals on this
// device.
func (d DeviceProfile) IOTime(randOps int64, bytes int64) time.Duration {
	seek := time.Duration(randOps) * d.SeekLatency
	transfer := time.Duration(float64(bytes) / (d.ThroughputMBps * 1e6) * float64(time.Second))
	return seek + transfer
}

// Counters accumulates simulated disk accesses: build-time charges directly,
// and each query's reads once, when its Cursor is flushed. All methods are
// safe for concurrent use (benchmarks may build indexes in parallel).
type Counters struct {
	seqOps    atomic.Int64
	seqBytes  atomic.Int64
	randOps   atomic.Int64
	randBytes atomic.Int64
}

// ChargeSeq records a sequential read of n bytes.
func (c *Counters) ChargeSeq(n int64) { c.Add(Snapshot{SeqOps: 1, SeqBytes: n}) }

// ChargeRand records a random read (one seek) of n bytes.
func (c *Counters) ChargeRand(n int64) { c.Add(Snapshot{RandOps: 1, RandBytes: n}) }

// Add records a whole access record at once: a flushed Cursor's.
func (c *Counters) Add(s Snapshot) {
	if c == nil {
		return
	}
	c.seqOps.Add(s.SeqOps)
	c.seqBytes.Add(s.SeqBytes)
	c.randOps.Add(s.RandOps)
	c.randBytes.Add(s.RandBytes)
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		SeqOps:    c.seqOps.Load(),
		SeqBytes:  c.seqBytes.Load(),
		RandOps:   c.randOps.Load(),
		RandBytes: c.randBytes.Load(),
	}
}

// Snapshot is an immutable copy of counter values.
type Snapshot struct {
	SeqOps, SeqBytes, RandOps, RandBytes int64
}

// Sub returns s - o component-wise, the accesses between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		SeqOps:    s.SeqOps - o.SeqOps,
		SeqBytes:  s.SeqBytes - o.SeqBytes,
		RandOps:   s.RandOps - o.RandOps,
		RandBytes: s.RandBytes - o.RandBytes,
	}
}

// Add returns s + o component-wise.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		SeqOps:    s.SeqOps + o.SeqOps,
		SeqBytes:  s.SeqBytes + o.SeqBytes,
		RandOps:   s.RandOps + o.RandOps,
		RandBytes: s.RandBytes + o.RandBytes,
	}
}

// TotalBytes returns all bytes in the snapshot.
func (s Snapshot) TotalBytes() int64 { return s.SeqBytes + s.RandBytes }

// IOTime converts the snapshot to simulated I/O time on device d.
func (s Snapshot) IOTime(d DeviceProfile) time.Duration {
	return d.IOTime(s.RandOps, s.TotalBytes())
}

// String formats the access totals for logs and test output.
func (s Snapshot) String() string {
	return fmt.Sprintf("seq=%d ops/%d B, rand=%d ops/%d B", s.SeqOps, s.SeqBytes, s.RandOps, s.RandBytes)
}

// BytesPerValue is the on-disk size of one data point (single precision).
const BytesPerValue = 4

// SeriesFile models the raw data file: N series of fixed length stored
// back-to-back on the simulated disk. The backing store is a single flat,
// 64-byte-aligned float32 arena (series i occupies arena[i*L:(i+1)*L]), so
// the in-memory layout matches the on-disk one: leaf scans and sequential
// passes stream one contiguous region instead of pointer-chasing per-series
// heap allocations. Cursor reads and Peek return subslices of the arena;
// callers must treat them as immutable views (see the package series docs
// for the aliasing contract).
//
// Charged reads go through a Cursor, which each query makes for itself: the
// file keeps no read position, so concurrent queries never disturb one
// another's sequential/random attribution, and the shared Counters see one
// write per query. Build-time charges still go to the Counters directly.
//
// The file is growable: Append extends it at the tail (the live-ingestion
// path). Arena and count are published together through one atomic pointer,
// so a reader sees a consistent (arena, count) pair: either before or after
// an append, never a torn mix. Appends are serialized internally; when the
// arena has spare capacity the new series are written in place past every
// published count (no reader can observe the region), otherwise the arena
// is copied into a larger aligned block with headroom — readers holding
// views of the old arena keep valid immutable data either way.
type SeriesFile struct {
	state  atomic.Pointer[fileState]
	length int
	c      *Counters
	growMu sync.Mutex // serializes Append
}

// fileState is one immutable published snapshot of the file's extent.
type fileState struct {
	arena []float32 // flat backing, count*length values (cap may exceed len)
	count int
}

// at returns the arena view of series i. The three-index slice caps the view
// at its own end, so an append through it can never bleed into a neighbor.
func (st *fileState) at(i, length int) series.Series {
	lo := i * length
	return series.Series(st.arena[lo : lo+length : lo+length])
}

// NewSeriesFile copies data (all series must share the same length) into a
// fresh aligned arena and wraps it in a simulated file charging accesses to
// c. Input built over a flat backing already (dataset generators,
// dataset.LoadFile) should go through NewSeriesFileFlat instead, which aliases
// without copying — that is what lets query replicas share one arena.
func NewSeriesFile(data []series.Series, c *Counters) *SeriesFile {
	length := 0
	if len(data) > 0 {
		length = len(data[0])
	}
	arena := NewArena(len(data) * length)
	for i, s := range data {
		if len(s) != length {
			panic(fmt.Sprintf("storage: series %d has length %d, want %d", i, len(s), length))
		}
		copy(arena[i*length:], s)
	}
	f := &SeriesFile{length: length, c: c}
	f.state.Store(&fileState{arena: arena, count: len(data)})
	return f
}

// NewSeriesFileFlat wraps an existing flat backing (count series of the
// given length stored back-to-back) without copying. The file aliases flat:
// collections sharing one arena (replicas over the same dataset) share
// memory exactly as they share the simulated disk.
func NewSeriesFileFlat(flat []float32, count, length int, c *Counters) *SeriesFile {
	if len(flat) != count*length || count < 0 || length < 0 {
		panic(fmt.Sprintf("storage: flat backing of %d values cannot hold %d×%d series", len(flat), count, length))
	}
	f := &SeriesFile{length: length, c: c}
	f.state.Store(&fileState{arena: flat, count: count})
	return f
}

// Len returns the number of series in the file.
func (f *SeriesFile) Len() int { return f.state.Load().count }

// SeriesLen returns the length of each series.
func (f *SeriesFile) SeriesLen() int { return f.length }

// SeriesBytes returns the on-disk size of one series.
func (f *SeriesFile) SeriesBytes() int64 { return int64(f.length) * BytesPerValue }

// SizeBytes returns the on-disk size of the whole file.
func (f *SeriesFile) SizeBytes() int64 { return int64(f.Len()) * f.SeriesBytes() }

// Peek returns series i without charging any I/O. It is used by index
// construction paths whose I/O is charged at a coarser granularity (e.g.,
// one sequential pass over the file) and by test oracles.
func (f *SeriesFile) Peek(i int) series.Series { return f.state.Load().at(i, f.length) }

// PeekFlat returns the arena values of series [lo, hi) as one flat view
// without charging any I/O — Peek for a range. The checkpoint path reads the
// series it folds through it: they are already counted as written.
func (f *SeriesFile) PeekFlat(lo, hi int) []float32 {
	st := f.state.Load()
	if lo < 0 || hi > st.count || lo > hi {
		panic(fmt.Sprintf("storage: PeekFlat[%d,%d) out of bounds 0..%d", lo, hi, st.count))
	}
	return st.arena[lo*f.length : hi*f.length : hi*f.length]
}

// ChargeFullScan charges one sequential pass over the entire file, the way
// bulk-loading index builders read their input.
func (f *SeriesFile) ChargeFullScan() {
	f.c.ChargeSeq(f.SizeBytes())
}

// Append extends the file with len(values)/SeriesLen new series (values
// holds them back to back; the length must be a positive multiple of the
// series length) and returns the index the first one landed at. The write
// is charged as one sequential transfer, the way a log-structured data file
// grows on disk. Concurrent readers keep a consistent view: they observe
// the file's extent entirely before or entirely after the append. Appends
// themselves are serialized internally.
func (f *SeriesFile) Append(values []float32) int {
	if f.length == 0 || len(values) == 0 || len(values)%f.length != 0 {
		panic(fmt.Sprintf("storage: append of %d values onto series length %d", len(values), f.length))
	}
	f.growMu.Lock()
	defer f.growMu.Unlock()
	st := f.state.Load()
	first := st.count
	newLen := (st.count * f.length) + len(values)
	arena := st.arena
	if newLen > cap(arena) {
		// Copy-on-grow into a fresh aligned arena with headroom, so a burst
		// of appends amortizes to one copy per doubling. Readers holding
		// the old arena keep valid immutable views of the old extent.
		arena = NewArenaCap(st.count*f.length, max(newLen, 2*cap(arena)))
		copy(arena, st.arena)
	}
	// Writing past every published length is invisible to concurrent
	// readers (they never index beyond their state's count); the atomic
	// store below is the release barrier that publishes the new extent.
	arena = arena[:newLen]
	copy(arena[first*f.length:], values)
	f.state.Store(&fileState{arena: arena, count: newLen / f.length})
	f.c.ChargeSeq(int64(len(values)) * BytesPerValue)
	return first
}
