// Package wal implements the two append-only files behind durable ingestion:
// the write-ahead log Engine.Append writes before applying a batch, and the
// checkpoint log Engine.Checkpoint folds the write-ahead log into. Both are
// files of CRC32-framed, length-prefixed records that make an acked write
// survive kill -9 at any byte boundary; they differ only in their header.
//
// File layout:
//
//	"HYDWAL" | u16 version | u32 seriesLen          (write-ahead log header, 12 bytes)
//	"HYDCKL" | u16 version | u32 seriesLen | u64 baseCount | u32 baseFP
//	                                                (bound header, 24 bytes)
//	u32 payloadLen | payload | u32 crc32(payload)   (one frame per record)
//	...
//
// A record's payload is uvarint firstSeq, uvarint count, then count x
// seriesLen float32 values (little-endian, bit-exact — the series are
// logged already z-normalized, so replay applies byte-identical data).
// firstSeq is the collection position the record's first series lands at;
// successive records are contiguous (next.firstSeq == prev.firstSeq +
// prev.count), which is what makes replay against a watermark a simple skip.
// A bound header (Recover with a Binding) names the base collection the
// records extend, so a log opened over the wrong base fails with ErrBinding
// before any record is looked at; its first record starts at baseCount.
//
// Recovery is split in two so that it can stay read-only until the caller
// has proven the whole ingest directory consistent. Recover scans an
// existing file forward and stops at the first frame that is short,
// oversized, fails its CRC, decodes inconsistently or breaks sequence
// contiguity. If nothing that scans as a frame lies beyond that offset, the
// rest is a torn tail (the residue of a crash mid-append): Recover returns
// the intact records and Repair later truncates the tail away. If an intact
// frame does lie beyond it, the damage is in the middle of acked data and
// Recover fails with ErrCorrupt — truncating there would silently drop
// records. Neither Recover nor a failed open ever modifies the file. Open is
// Recover followed by Repair. The scan is hardened against hostile bytes
// the same way the snapshot decoder is: every length is bounded and
// cross-checked before allocation, and the scan always terminates.
//
// Durability is governed by the sync policy: SyncAlways fsyncs after every
// record (the default — an acked append is on disk), SyncInterval fsyncs at
// most once per interval (bounded loss window), SyncOff leaves syncing to
// the OS (benchmarks). The wal/short-write, wal/sync-error, wal/torn-tail
// and wal/slow-fsync faultpoints are compiled into the append path for
// crash drills, on either kind of file.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/faultpoint"
	"hydra/internal/persist"
)

// Magic is the six-byte signature opening every write-ahead log.
const Magic = "HYDWAL"

// BoundMagic is the six-byte signature opening a log with a bound header
// (the checkpoint log). It differs from Magic so that neither kind of file
// can be opened as the other.
const BoundMagic = "HYDCKL"

// FormatVersion is the wire-format version this package reads and writes,
// shared by both headers. See docs/FORMAT.md for the version-bump rules.
const FormatVersion = 2

// Ext is the conventional WAL file extension.
const Ext = ".wal"

// headerLen is the byte length of the plain header; a bound header appends
// bindingLen bytes (u64 baseCount, u32 baseFP) to it.
const (
	headerLen  = len(Magic) + 2 + 4
	bindingLen = 8 + 4
)

// Hostile-input bounds, mirroring the persist decoder's hardening: no
// claimed length is trusted before it clears these caps, so corrupt or
// adversarial bytes cannot trigger huge allocations.
const (
	// maxSeriesLen caps the per-series value count a header may declare.
	maxSeriesLen = 1 << 20
	// maxBatch caps the series count one record may carry.
	maxBatch = 1 << 20
	// maxPayload caps one frame's payload length in bytes.
	maxPayload = 1 << 28
	// maxResyncChecksums caps how many candidate frames the torn-tail check
	// checksums beyond the first bad frame. A real torn tail offers none (a
	// run of float bytes almost never has a frame's shape); a file crafted
	// to offer many is refused as corrupt instead of being checksummed in
	// quadratic time.
	maxResyncChecksums = 64
)

// Sentinel errors for logs recovery must not touch (as opposed to torn
// tails, which Repair truncates silently).
var (
	// ErrMagic reports a file that is not a log of the expected kind.
	ErrMagic = errors.New("wal: bad magic")
	// ErrVersion reports a log written by an incompatible format version.
	ErrVersion = errors.New("wal: unsupported format version")
	// ErrSeriesLen reports a log whose header series length does not match
	// the collection it is being opened for.
	ErrSeriesLen = errors.New("wal: series length mismatch")
	// ErrBinding reports a bound log written over a different base
	// collection than the one it is being opened for.
	ErrBinding = errors.New("wal: log is bound to a different base collection")
	// ErrCorrupt reports damage that is not a torn tail: an intact frame
	// lies beyond the first frame that fails to scan, so truncating there
	// would drop acked records. (The ingest layer reports a gap between the
	// records of its two logs with the same error.)
	ErrCorrupt = errors.New("wal: log is damaged beyond a torn tail")
)

// Binding identifies the base collection a bound log's records extend.
type Binding struct {
	// BaseCount is the number of series in the base collection — the
	// position the log's first record starts at.
	BaseCount uint64
	// BaseFP is the base collection's data fingerprint.
	BaseFP uint32
}

// SyncMode selects when Append fsyncs the log file.
type SyncMode int

const (
	// SyncAlways fsyncs after every record: an acked append is durable
	// against both process and machine crash. The default.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per configured interval: an acked
	// append survives process crash immediately and machine crash after
	// the next periodic sync.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS flushes on its own schedule.
	// For ingest benchmarks and bulk loads that accept the loss window.
	SyncOff
)

// String names the mode the way ParseSyncPolicy spells it.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncPolicy parses a -wal-sync style flag value: "always", "off", or
// a duration ("250ms") selecting interval sync with that period.
func ParseSyncPolicy(s string) (SyncMode, time.Duration, error) {
	switch s {
	case "", "always":
		return SyncAlways, 0, nil
	case "off":
		return SyncOff, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncAlways, 0, fmt.Errorf("wal: bad sync policy %q: want always, off, or a positive duration", s)
	}
	return SyncInterval, d, nil
}

// Record is one recovered WAL record: a contiguous batch of series starting
// at collection position FirstSeq. len(Values) is count x seriesLen.
type Record struct {
	// FirstSeq is the collection position of the record's first series.
	FirstSeq uint64
	// Values holds the batch's series back to back, seriesLen values each.
	Values []float32
}

// Log is an open log of either kind. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	mu        sync.Mutex
	f         *os.File // nil until Repair, and again after Close
	path      string
	seriesLen int
	hdr       []byte // the header this log's file starts with
	torn      bool   // Recover found a torn tail behind the intact frames
	mode      SyncMode
	interval  time.Duration
	lastSync  time.Time
	size      atomic.Int64 // end of the last intact frame; writes land here
	records   atomic.Int64
	series    atomic.Int64
	synced    atomic.Int64 // fsyncs issued
}

// Open opens (or creates) the write-ahead log at path for series of
// seriesLen values and returns the log positioned at its tail plus every
// intact record, in order, for replay: Recover with no binding, then Repair.
// A torn final record — the residue of a crash mid-append — is truncated
// away, not an error; an alien file (bad magic, wrong version, mismatched
// series length) or mid-file damage (ErrCorrupt) fails and leaves the file
// as it was. mode/interval set the fsync policy (interval is ignored unless
// mode is SyncInterval).
func Open(path string, seriesLen int, mode SyncMode, interval time.Duration) (*Log, []Record, error) {
	l, recs, err := Recover(path, seriesLen, nil, mode, interval)
	if err != nil {
		return nil, nil, err
	}
	if err := l.Repair(); err != nil {
		return nil, nil, err
	}
	return l, recs, nil
}

// Recover reads the log at path without modifying it and returns every
// intact record, in order, plus a Log that cannot be appended to until
// Repair has run. With a non-nil bind the file carries the bound header and
// must have been written over exactly that base (ErrBinding otherwise), and
// its records must start at bind.BaseCount. A missing file recovers as an
// empty log that Repair creates. The caller replays the records, and calls
// Repair only once everything it recovered fits together — until then a
// failure leaves the directory byte-identical.
func Recover(path string, seriesLen int, bind *Binding, mode SyncMode, interval time.Duration) (*Log, []Record, error) {
	if seriesLen <= 0 || seriesLen > maxSeriesLen {
		return nil, nil, fmt.Errorf("wal: implausible series length %d", seriesLen)
	}
	l := &Log{path: path, seriesLen: seriesLen, hdr: header(seriesLen, bind), mode: mode, interval: interval}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	recs, good, err := scan(data, seriesLen, l.hdr, bind)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l.size.Store(good)
	l.torn = good >= int64(len(l.hdr)) && good < int64(len(data))
	for _, r := range recs {
		l.records.Add(1)
		l.series.Add(int64(len(r.Values) / seriesLen))
	}
	return l, recs, nil
}

// Repair makes a recovered log appendable: a missing file (or one a crash
// tore inside its header) is created with a fresh header, a torn tail is
// truncated to the last intact frame, and either change is fsynced before
// any append can land — otherwise a crash could resurrect stale torn bytes
// underneath freshly written frames. Repair on an open log is a no-op.
func (l *Log) Repair() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		return nil
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	if err := l.repair(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: repairing %s: %w", l.path, err)
	}
	l.f = f
	l.lastSync = time.Now()
	return nil
}

// repair brings f to exactly l.size bytes of header plus intact frames.
func (l *Log) repair(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	good := l.size.Load()
	switch {
	case good < int64(len(l.hdr)):
		if err := f.Truncate(0); err != nil {
			return err
		}
		if _, err := crashWriteAt(f, l.hdr, 0); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		// Pin the directory entry too: without this, a power cut can drop
		// the whole freshly created file — and with it every record fsynced
		// into it since — even though each record's own sync succeeded.
		if err := persist.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("syncing directory: %w", err)
		}
		l.size.Store(int64(len(l.hdr)))
	case good < fi.Size():
		if err := f.Truncate(good); err != nil {
			return err
		}
		return f.Sync()
	}
	return nil
}

// header renders the file header: the 12-byte plain one, or with bind the
// 24-byte bound one.
func header(seriesLen int, bind *Binding) []byte {
	magic := Magic
	if bind != nil {
		magic = BoundMagic
	}
	hdr := make([]byte, headerLen, headerLen+bindingLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[len(magic):], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[len(magic)+2:], uint32(seriesLen))
	if bind != nil {
		hdr = binary.LittleEndian.AppendUint64(hdr, bind.BaseCount)
		hdr = binary.LittleEndian.AppendUint32(hdr, bind.BaseFP)
	}
	return hdr
}

// scan validates data as a log whose header must equal want and returns the
// intact records plus the byte offset of the end of the last intact frame.
// Anything past that offset is a torn tail — unless an intact frame lies in
// it, which is ErrCorrupt. Header mismatches are returned as the typed
// error of the first field that differs.
func scan(data []byte, seriesLen int, want []byte, bind *Binding) (recs []Record, good int64, err error) {
	magic := want[:len(Magic)]
	if n := min(len(data), len(magic)); string(data[:n]) != string(magic[:n]) {
		return nil, 0, fmt.Errorf("%w: file starts with %q, want %q", ErrMagic, data[:n], magic)
	}
	if len(data) < len(want) {
		// A file that ends inside its own header is a crash during creation:
		// recoverable by rewriting, not an alien file (there was nothing in
		// it to lose).
		return nil, 0, nil
	}
	if v := binary.LittleEndian.Uint16(data[len(Magic):]); v != FormatVersion {
		return nil, 0, fmt.Errorf("%w: %d (have %d)", ErrVersion, v, FormatVersion)
	}
	if n := binary.LittleEndian.Uint32(data[len(Magic)+2:]); n != uint32(seriesLen) {
		return nil, 0, fmt.Errorf("%w: log has %d, collection has %d", ErrSeriesLen, n, seriesLen)
	}
	if bind != nil && string(data[headerLen:len(want)]) != string(want[headerLen:]) {
		return nil, 0, fmt.Errorf("%w: log extends %d series with fingerprint %08x, have %d with %08x", ErrBinding,
			binary.LittleEndian.Uint64(data[headerLen:]), binary.LittleEndian.Uint32(data[headerLen+8:]), bind.BaseCount, bind.BaseFP)
	}

	off := int64(len(want))
	// A plain log may start anywhere (its head is truncated away by every
	// checkpoint); a bound log starts at its base.
	var nextSeq uint64
	if bind != nil {
		nextSeq = bind.BaseCount
	}
	for {
		f, ok := frameAt(data[off:], seriesLen)
		if !ok || (f.firstSeq != nextSeq && (bind != nil || len(recs) > 0)) {
			break
		}
		nextSeq = f.firstSeq + uint64(f.count)
		recs = append(recs, Record{FirstSeq: f.firstSeq, Values: decodeValues(f.vals)})
		off += int64(f.size)
	}
	if frameWithin(data[off:], seriesLen) {
		return nil, 0, fmt.Errorf("%w: the frame at offset %d does not continue the log, and an intact frame follows it", ErrCorrupt, off)
	}
	return recs, off, nil
}

// frame is one parsed frame: its record header, the payload's value bytes,
// and the whole frame's length.
type frame struct {
	firstSeq uint64
	count    int
	vals     []byte
	size     int
}

// frameShape reports whether data starts with bytes shaped like one frame —
// bounded length, a record header whose count accounts for exactly the
// payload — without checksumming it.
func frameShape(data []byte, seriesLen int) (frame, bool) {
	if len(data) < 8 { // frame header + trailer minimum
		return frame{}, false
	}
	plen := binary.LittleEndian.Uint32(data)
	if plen == 0 || plen > maxPayload || int64(plen) > int64(len(data))-8 {
		return frame{}, false
	}
	payload := data[4 : 4+plen]
	firstSeq, n := binary.Uvarint(payload)
	if n <= 0 {
		return frame{}, false
	}
	c, m := binary.Uvarint(payload[n:])
	if m <= 0 || c == 0 || c > maxBatch || uint64(len(payload)-n-m) != c*uint64(seriesLen)*4 {
		return frame{}, false
	}
	return frame{firstSeq: firstSeq, count: int(c), vals: payload[n+m:], size: int(plen) + 8}, true
}

// checksumOK reports whether the frame f, parsed from the start of data,
// carries the CRC of its payload.
func (f frame) checksumOK(data []byte) bool {
	return crc32.ChecksumIEEE(data[4:f.size-4]) == binary.LittleEndian.Uint32(data[f.size-4:])
}

// frameAt is frameShape plus the checksum: data starts with one intact frame.
func frameAt(data []byte, seriesLen int) (frame, bool) {
	f, ok := frameShape(data, seriesLen)
	return f, ok && f.checksumOK(data)
}

// frameWithin reports whether an intact frame starts at any offset of data —
// the test that tells mid-file damage from a torn tail.
func frameWithin(data []byte, seriesLen int) bool {
	checksums := 0
	for i := 0; i+8 <= len(data); i++ {
		f, ok := frameShape(data[i:], seriesLen)
		if !ok {
			continue
		}
		if checksums++; checksums > maxResyncChecksums || f.checksumOK(data[i:]) {
			return true
		}
	}
	return false
}

// decodeValues decodes a payload's little-endian float32 values.
func decodeValues(b []byte) []float32 {
	values := make([]float32, len(b)/4)
	for i := range values {
		values[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return values
}

// encodeFrame renders one record as a frame, sized once and written in
// place: length prefix, record header, values, checksum.
func encodeFrame(firstSeq uint64, count int, values []float32) []byte {
	var rh [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(rh[:], firstSeq)
	n += binary.PutUvarint(rh[n:], uint64(count))
	plen := n + 4*len(values)
	frame := make([]byte, 4+plen+4)
	binary.LittleEndian.PutUint32(frame, uint32(plen))
	copy(frame[4:], rh[:n])
	vals := frame[4+n : 4+plen]
	for i, v := range values {
		binary.LittleEndian.PutUint32(vals[4*i:], math.Float32bits(v))
	}
	binary.LittleEndian.PutUint32(frame[4+plen:], crc32.ChecksumIEEE(frame[4:4+plen]))
	return frame
}

// MaxBatch returns the most series one record of this log can carry; a
// caller with more (a checkpoint folding a long tail) splits them over
// several records.
func (l *Log) MaxBatch() int {
	return min(maxBatch, (maxPayload-2*binary.MaxVarintLen64)/(4*l.seriesLen))
}

// Append logs one batch of series landing at collection position firstSeq.
// len(values) must be a positive multiple of the series length, at most
// MaxBatch series. When Append returns nil the record is acked: it survives
// process crash immediately and machine crash per the sync policy. When it
// returns an error the record is not applied and not acked — the log is
// rewound to the previous frame boundary, so a later recovery cannot
// resurrect it.
func (l *Log) Append(firstSeq uint64, values []float32) error {
	if len(values) == 0 || len(values)%l.seriesLen != 0 {
		return fmt.Errorf("wal: append of %d values is not a multiple of series length %d", len(values), l.seriesLen)
	}
	count := len(values) / l.seriesLen
	if count > l.MaxBatch() {
		return fmt.Errorf("wal: batch of %d series exceeds limit %d", count, l.MaxBatch())
	}
	frame := encodeFrame(firstSeq, count, values)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: append to %s: log is not open", l.path)
	}
	// Every write is positional at the last intact frame's end, so whatever
	// a failed append left beyond it is overwritten, never appended after.
	start := l.size.Load()

	if faultpoint.Fire(faultpoint.WALShortWrite) {
		// Torn write drill: half the frame lands, the append fails, and the
		// log self-repairs to the frame boundary — "unacked absent".
		crashWriteAt(l.f, frame[:len(frame)/2], start)
		l.rewind(start)
		return fmt.Errorf("wal: append: %w", &faultpoint.Error{Point: faultpoint.WALShortWrite})
	}
	if faultpoint.Fire(faultpoint.WALTornTail) {
		// Torn tail drill: like a crash, the damage stays on disk — the
		// next Open must truncate it. The in-memory offset is NOT advanced,
		// so this process never acks or reads the torn bytes.
		crashWriteAt(l.f, frame[:len(frame)/2], start)
		return fmt.Errorf("wal: append: %w", &faultpoint.Error{Point: faultpoint.WALTornTail})
	}

	n, err := crashWriteAt(l.f, frame, start)
	if err != nil {
		l.rewind(start)
		return fmt.Errorf("wal: append: %w", err)
	}
	if n < len(frame) {
		l.rewind(start)
		return fmt.Errorf("wal: append: short write (%d of %d bytes)", n, len(frame))
	}
	l.size.Store(start + int64(len(frame)))

	if err := l.maybeSync(); err != nil {
		// The record hit the file but its durability cannot be promised:
		// fail the append and rewind so the caller's "acked ⇒ durable"
		// contract stays exact.
		l.rewind(start)
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.records.Add(1)
	l.series.Add(int64(count))
	return nil
}

// rewind truncates the file back to offset, undoing a failed append. A
// failed rewind is tolerated: the leftover bytes form a torn tail the next
// Open repairs, and the in-memory offset still points at the frame
// boundary, so this process keeps appending correctly over them.
func (l *Log) rewind(offset int64) {
	l.f.Truncate(offset)
	l.size.Store(offset)
}

// Rollback undoes the most recent acked Append: the log is truncated back
// to offset (the Size observed before that Append), the truncation is made
// durable, and the record/series counters are adjusted by one record of
// count series. The ingest layer calls it when applying an acked record
// fails — the record must not stay in the log, or recovery would resurrect
// a batch whose Append returned an error. When Rollback itself fails the
// record may still be durable; the caller must stop acking appends.
func (l *Log) Rollback(offset int64, count int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset < int64(len(l.hdr)) || offset > l.size.Load() {
		return fmt.Errorf("wal: rollback to implausible offset %d (log size %d)", offset, l.size.Load())
	}
	if err := l.truncateSynced(offset); err != nil {
		return fmt.Errorf("wal: rollback: %w", err)
	}
	l.records.Add(-1)
	l.series.Add(-int64(count))
	return nil
}

// truncateSynced cuts the file to offset and makes the cut durable. Callers
// hold l.mu.
func (l *Log) truncateSynced(offset int64) error {
	if l.f == nil {
		return fmt.Errorf("log is not open")
	}
	crashIfSpent()
	if err := l.f.Truncate(offset); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size.Store(offset)
	return nil
}

// maybeSync applies the sync policy after a record write. Callers hold l.mu.
func (l *Log) maybeSync() error {
	switch l.mode {
	case SyncOff:
		return nil
	case SyncInterval:
		if time.Since(l.lastSync) < l.interval {
			return nil
		}
	}
	return l.syncLocked()
}

// syncLocked fsyncs the file, honoring the fsync faultpoints. Callers hold
// l.mu.
func (l *Log) syncLocked() error {
	faultpoint.Delay(faultpoint.WALSlowFsync)
	if err := faultpoint.Err(faultpoint.WALSyncError); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced.Add(1)
	l.lastSync = time.Now()
	return nil
}

// Truncate drops every record, resetting the log to a bare header — called
// after a checkpoint record holding the same series is durable, at which
// point the records are redundant. The truncation is synced before
// returning.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.truncateSynced(int64(len(l.hdr))); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.records.Store(0)
	l.series.Store(0)
	return nil
}

// Torn reports whether Recover found a torn tail behind the intact frames:
// the residue of an append that died before it was acked. (A file torn
// inside its header never held a record and does not count.)
func (l *Log) Torn() bool { return l.torn }

// Size returns the log's current byte length: header plus intact frames.
func (l *Log) Size() int64 { return l.size.Load() }

// Records returns how many records the log currently holds (recovered plus
// appended since the last Truncate) — for the write-ahead log, the lag a
// checkpoint would fold.
func (l *Log) Records() int64 { return l.records.Load() }

// Series returns how many series those records carry.
func (l *Log) Series() int64 { return l.series.Load() }

// Syncs returns how many fsyncs the log has issued.
func (l *Log) Syncs() int64 { return l.synced.Load() }

// Close syncs (unless the policy is off) and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var serr error
	if l.mode != SyncOff {
		serr = l.syncLocked()
	}
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// CrashEnvVar, when set to a byte count N, makes the process SIGKILL itself
// the moment cumulative log writes (write-ahead and checkpoint log together)
// would exceed N bytes — after writing exactly the prefix that fits — and at
// the first truncation once exactly N bytes are written, which is how a
// drill dies between a checkpoint record's fsync and the write-ahead log's
// truncation. The crash-drill suite sets it on a child process to die
// deterministically at arbitrary byte boundaries; it is never set in
// production.
const CrashEnvVar = "HYDRA_WAL_CRASH_BYTES"

var (
	// crashAfter is the parsed CrashEnvVar budget (-1 = disabled).
	crashAfter int64 = -1
	// crashTotal counts cumulative bytes written by crashWriteAt.
	crashTotal atomic.Int64
)

func init() {
	if v := os.Getenv(CrashEnvVar); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			crashAfter = n
		}
	}
}

// crashWriteAt writes b to f at off, honoring the CrashEnvVar drill: when
// the write would cross the armed byte budget, only the prefix up to the
// budget is written and the process kills itself with SIGKILL — a bit-exact
// torn write, unsurvivable and unflushable, exactly like a real crash.
func crashWriteAt(f *os.File, b []byte, off int64) (int, error) {
	if crashAfter < 0 {
		return f.WriteAt(b, off)
	}
	written := crashTotal.Load()
	if written+int64(len(b)) <= crashAfter {
		n, err := f.WriteAt(b, off)
		crashTotal.Add(int64(n))
		return n, err
	}
	if part := int(crashAfter - written); part > 0 {
		f.WriteAt(b[:part], off)
	}
	kill()
	return 0, nil
}

// crashIfSpent kills the process before a truncation when the CrashEnvVar
// budget is exactly used up: the drill's death between two writes.
func crashIfSpent() {
	if crashAfter >= 0 && crashTotal.Load() == crashAfter {
		kill()
	}
}

// kill SIGKILLs the process and never returns.
func kill() {
	p, _ := os.FindProcess(os.Getpid())
	p.Kill()
	select {} // unreachable: SIGKILL is not catchable
}
