// Package persist implements the versioned on-disk snapshot format that
// makes index construction a pay-once cost: every tree-backed method can
// serialize its built state into a snapshot and reattach it to a collection
// later, answering queries bit-identically to a freshly built index (the
// build-once/query-many workflow of the paper's Figures 5–8, where
// construction dominates total cost until query counts grow large).
//
// A snapshot is a self-describing container, fully specified in
// docs/FORMAT.md:
//
//	magic "HYDIDX" | format version | method name | section table | payloads
//
// The section table names each payload, records its length, and carries a
// CRC-32 (IEEE) checksum verified on load, so truncated or corrupted
// snapshots fail deterministically instead of deserializing garbage. All
// multi-byte integers in the envelope are little-endian or unsigned varints;
// floating-point values are IEEE-754 bits in little-endian order — the format
// is endian-stable by construction, never relying on host memory layout.
//
// The package is deliberately free of dependencies on the rest of the suite:
// it knows about bytes, not about trees (its only suite import is the leaf
// fault-injection framework, package faultpoint). Method payload layouts are
// owned by the index packages (each encodes into sections via Writer/Reader
// primitives); the common envelope and collection fingerprint are owned by
// package core (core.SaveIndex / core.LoadIndex).
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"hydra/internal/faultpoint"
)

// Magic identifies a snapshot file. It is distinct from the dataset magic
// ("HYD1") so the two container kinds cannot be confused.
const Magic = "HYDIDX"

// FormatVersion is the current snapshot format version. The envelope
// (magic, version, method, section table) may only change with a version
// bump; section payload layouts follow the version-bump rules of
// docs/FORMAT.md.
const FormatVersion uint16 = 1

// SnapshotExt is the conventional file extension for snapshots
// (hydra-build output, the hydra-bench cache).
const SnapshotExt = ".hydx"

// FileStem maps a method name to a filesystem-safe file stem
// ("R*-tree" → "r-tree", "VA+file" → "va-file"). hydra-build and the
// experiments snapshot cache share it so their file names always agree.
func FileStem(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			if s := b.String(); len(s) > 0 && s[len(s)-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	return strings.Trim(b.String(), "-")
}

// Limits protecting the decoder from implausible headers on corrupt input.
const (
	maxNameLen    = 1 << 10 // section/method name bytes
	maxSections   = 1 << 10
	maxSectionLen = 1 << 32 // single section payload bytes
)

// Sentinel errors distinguishing the snapshot failure modes; all decoder
// errors wrap one of these.
var (
	// ErrMagic reports a reader that does not hold a snapshot at all.
	ErrMagic = errors.New("persist: bad magic (not an index snapshot)")
	// ErrVersion reports a snapshot written by an incompatible format version.
	ErrVersion = errors.New("persist: unsupported snapshot format version")
	// ErrChecksum reports a section whose payload fails CRC verification.
	ErrChecksum = errors.New("persist: section checksum mismatch")
	// ErrTruncated reports a snapshot that ends before its declared contents.
	ErrTruncated = errors.New("persist: truncated snapshot")
	// ErrCorrupt reports structurally invalid contents (bad lengths, missing
	// sections, trailing garbage inside a section).
	ErrCorrupt = errors.New("persist: corrupt snapshot")
)

// section is one named, checksummed payload.
type section struct {
	name string
	buf  bytes.Buffer
}

// Encoder assembles a snapshot in memory: the method name, then any number
// of named sections, written out in one pass by WriteTo. Buffering the
// sections first is what lets the header carry exact lengths and checksums.
type Encoder struct {
	method   string
	sections []*section
}

// NewEncoder starts a snapshot for the named method.
func NewEncoder(method string) *Encoder {
	return &Encoder{method: method}
}

// Section appends a new named section and returns the Writer that fills it.
// Sections are written in creation order and names must be unique within a
// snapshot (duplicates make WriteTo fail).
func (e *Encoder) Section(name string) *Writer {
	s := &section{name: name}
	e.sections = append(e.sections, s)
	return &Writer{buf: &s.buf}
}

// WriteTo writes the complete snapshot: header, section table, payloads.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	seen := map[string]bool{}
	for _, s := range e.sections {
		if seen[s.name] {
			return 0, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, s.name)
		}
		seen[s.name] = true
	}
	var hdr bytes.Buffer
	hw := &Writer{buf: &hdr}
	hdr.WriteString(Magic)
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], FormatVersion)
	hdr.Write(v[:])
	hw.String(e.method)
	hw.Uvarint(uint64(len(e.sections)))
	for _, s := range e.sections {
		hw.String(s.name)
		hw.Uvarint(uint64(s.buf.Len()))
		hw.U32(crc32.ChecksumIEEE(s.buf.Bytes()))
	}
	var total int64
	n, err := w.Write(hdr.Bytes())
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, s := range e.sections {
		n, err := w.Write(s.buf.Bytes())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Decoder holds a parsed snapshot: the method name and the verified
// sections, ready to be read back with Section.
type Decoder struct {
	method   string
	sections map[string][]byte
}

// NewDecoder reads a complete snapshot from r, verifying magic, format
// version and every section checksum up front. Errors wrap the package's
// sentinel errors (ErrMagic, ErrVersion, ErrChecksum, ErrTruncated,
// ErrCorrupt) — except injected transient I/O faults (faultpoint
// PersistReadError), which surface untyped-by-persist exactly like a real
// device error would, so load-retry layers can tell them from corruption.
func NewDecoder(r io.Reader) (*Decoder, error) {
	if err := faultpoint.Err(faultpoint.PersistReadError); err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	faultpoint.Delay(faultpoint.PersistSlowIO)
	r = faultpoint.ShortRead(faultpoint.PersistShortRead, r)
	br := newByteReader(r)
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if string(head) != Magic {
		return nil, ErrMagic
	}
	var vb [2]byte
	if _, err := io.ReadFull(br, vb[:]); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrTruncated, err)
	}
	version := binary.LittleEndian.Uint16(vb[:])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads version %d",
			ErrVersion, version, FormatVersion)
	}
	method, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("reading method name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading section count: %v", ErrTruncated, err)
	}
	if count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	type tableEntry struct {
		name string
		size uint64
		crc  uint32
	}
	table := make([]tableEntry, count)
	for i := range table {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("reading section %d name: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: reading section %q length: %v", ErrTruncated, name, err)
		}
		if size > maxSectionLen {
			return nil, fmt.Errorf("%w: implausible section %q length %d", ErrCorrupt, name, size)
		}
		var cb [4]byte
		if _, err := io.ReadFull(br, cb[:]); err != nil {
			return nil, fmt.Errorf("%w: reading section %q checksum: %v", ErrTruncated, name, err)
		}
		table[i] = tableEntry{name: name, size: size, crc: binary.LittleEndian.Uint32(cb[:])}
	}
	d := &Decoder{method: method, sections: make(map[string][]byte, count)}
	for _, te := range table {
		if _, dup := d.sections[te.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, te.name)
		}
		payload, err := readPayload(br, te.size)
		if err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrTruncated, te.name, err)
		}
		if crc32.ChecksumIEEE(payload) != te.crc {
			return nil, fmt.Errorf("%w: section %q", ErrChecksum, te.name)
		}
		d.sections[te.name] = payload
	}
	return d, nil
}

// Method returns the name the snapshot was saved under.
func (d *Decoder) Method() string { return d.method }

// Section returns a Reader over the named section's payload, or an error
// wrapping ErrCorrupt when the snapshot does not contain it.
func (d *Decoder) Section(name string) (*Reader, error) {
	payload, ok := d.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return &Reader{data: payload}, nil
}

// readPayload reads size bytes in bounded chunks, so a corrupt header
// claiming a huge section cannot force a huge up-front allocation: memory
// grows only as actual input arrives, and truncation fails at the first
// missing chunk.
func readPayload(r io.Reader, size uint64) ([]byte, error) {
	const chunk = 1 << 20
	first := size
	if first > chunk {
		first = chunk
	}
	buf := make([]byte, 0, first)
	for uint64(len(buf)) < size {
		n := size - uint64(len(buf))
		if n > chunk {
			n = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// byteReader adapts any io.Reader to io.ByteReader without double-buffering
// bytes.Reader inputs.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) Read(p []byte) (int, error) { return io.ReadFull(b.r, p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

func readString(br *byteReader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if n > maxNameLen {
		return "", fmt.Errorf("%w: implausible name length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return string(buf), nil
}

// Writer serializes primitive values into a section. Writes cannot fail
// (sections buffer in memory), so there is no error to check until
// Encoder.WriteTo.
type Writer struct {
	buf *bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf.WriteByte(b)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf.WriteByte(v) }

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

// F64 appends an IEEE-754 double as fixed little-endian bits, preserving
// every payload bit (including NaN payloads and signed zeros).
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf.Write(b[:])
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// U8s appends a length-prefixed byte slice.
func (w *Writer) U8s(v []uint8) {
	w.Uvarint(uint64(len(v)))
	w.buf.Write(v)
}

// Ints appends a length-prefixed slice of signed varints.
func (w *Writer) Ints(v []int) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.Varint(int64(x))
	}
}

// F64s appends a length-prefixed slice of doubles.
func (w *Writer) F64s(v []float64) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// F64Mat appends a length-prefixed slice of double slices.
func (w *Writer) F64Mat(v [][]float64) {
	w.Uvarint(uint64(len(v)))
	for _, row := range v {
		w.F64s(row)
	}
}

// U8Mat appends a length-prefixed slice of byte slices.
func (w *Writer) U8Mat(v [][]uint8) {
	w.Uvarint(uint64(len(v)))
	for _, row := range v {
		w.U8s(row)
	}
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return w.buf.Len() }

// Reader deserializes primitive values from a section payload. It is sticky
// on error: after the first failure every read returns a zero value, and
// Err reports the first failure — callers check once, at the end.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// Err returns the first decoding error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Close verifies the section was consumed exactly: it returns the sticky
// error if any, and an ErrCorrupt-wrapping error when bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(r.data)-r.pos)
	}
	return nil
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// ReadByte implements io.ByteReader for varint decoding.
func (r *Reader) ReadByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.pos >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r)
	if err != nil {
		r.fail("short uvarint")
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r)
	if err != nil {
		r.fail("short varint")
		return 0
	}
	return v
}

// Int reads an int-sized signed varint.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	b, err := r.ReadByte()
	if err != nil {
		r.fail("short bool")
		return false
	}
	return b != 0
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b, err := r.ReadByte()
	if err != nil {
		r.fail("short byte")
		return 0
	}
	return b
}

// take returns the next n raw bytes, or nil after recording an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// F64 reads an IEEE-754 double.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.fail("string length %d exceeds section", n)
		return ""
	}
	return string(r.take(int(n)))
}

// sliceLen validates a claimed element count against the bytes remaining
// (each element occupies at least minBytes).
func (r *Reader) sliceLen(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n*uint64(minBytes) > uint64(r.Remaining()) {
		r.fail("slice length %d exceeds section", n)
		return 0
	}
	return int(n)
}

// U8s reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) U8s() []uint8 {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	return append([]uint8(nil), r.take(n)...)
}

// Ints reads a length-prefixed slice of signed varints.
func (r *Reader) Ints() []int {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F64s reads a length-prefixed slice of doubles.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F64Mat reads a length-prefixed slice of double slices.
func (r *Reader) F64Mat() [][]float64 {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = r.F64s()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// U8Mat reads a length-prefixed slice of byte slices.
func (r *Reader) U8Mat() [][]uint8 {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([][]uint8, n)
	for i := range out {
		out[i] = r.U8s()
	}
	if r.err != nil {
		return nil
	}
	return out
}
