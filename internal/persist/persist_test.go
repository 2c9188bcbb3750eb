package persist

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// roundTrip encodes one section with a mix of every primitive and decodes it
// back, checking bit-exact equality.
func TestPrimitivesRoundTrip(t *testing.T) {
	enc := NewEncoder("test-method")
	w := enc.Section("payload")
	w.Uvarint(0)
	w.Uvarint(1<<63 + 17)
	w.Varint(-1234567)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.U8(0xAB)
	w.U32(0xDEADBEEF)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1)) // -0.0 must survive bit-exactly
	w.F64(math.Inf(1))
	w.String("héllo")
	w.U8s([]uint8{1, 2, 3})
	w.Ints([]int{-5, 0, 1 << 40})
	w.F64s([]float64{1.5, -2.25})
	w.F64Mat([][]float64{{1}, {}, {2, 3}})
	w.U8Mat([][]uint8{{9}, nil})

	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if dec.Method() != "test-method" {
		t.Errorf("method = %q", dec.Method())
	}
	r, err := dec.Section("payload")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint0 = %d", v)
	}
	if v := r.Uvarint(); v != 1<<63+17 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint(); v != -1234567 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Int(); v != 42 {
		t.Errorf("int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("bools wrong")
	}
	if v := r.U8(); v != 0xAB {
		t.Errorf("u8 = %x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("u32 = %x", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("f64 = %v", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("-0.0 not preserved: %v", v)
	}
	if v := r.F64(); !math.IsInf(v, 1) {
		t.Errorf("inf = %v", v)
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("string = %q", v)
	}
	if v := r.U8s(); !bytes.Equal(v, []uint8{1, 2, 3}) {
		t.Errorf("u8s = %v", v)
	}
	ints := r.Ints()
	if len(ints) != 3 || ints[0] != -5 || ints[2] != 1<<40 {
		t.Errorf("ints = %v", ints)
	}
	f64s := r.F64s()
	if len(f64s) != 2 || f64s[1] != -2.25 {
		t.Errorf("f64s = %v", f64s)
	}
	mat := r.F64Mat()
	if len(mat) != 3 || len(mat[0]) != 1 || len(mat[1]) != 0 || mat[2][1] != 3 {
		t.Errorf("f64mat = %v", mat)
	}
	umat := r.U8Mat()
	if len(umat) != 2 || umat[0][0] != 9 || len(umat[1]) != 0 {
		t.Errorf("u8mat = %v", umat)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	enc := NewEncoder("m")
	w := enc.Section("a")
	w.F64s([]float64{1, 2, 3})
	w2 := enc.Section("b")
	w2.String("second section")
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	raw := snapshotBytes(t)
	raw[0] = 'X'
	if _, err := NewDecoder(bytes.NewReader(raw)); !errors.Is(err, ErrMagic) {
		t.Errorf("err = %v, want ErrMagic", err)
	}
}

func TestDecoderRejectsWrongVersion(t *testing.T) {
	raw := snapshotBytes(t)
	raw[len(Magic)] = 0xFF // bump the version little-endian low byte
	if _, err := NewDecoder(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestDecoderRejectsTruncation(t *testing.T) {
	raw := snapshotBytes(t)
	for _, cut := range []int{3, len(Magic) + 1, len(raw) / 2, len(raw) - 1} {
		if _, err := NewDecoder(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecoderRejectsCorruptPayload(t *testing.T) {
	raw := snapshotBytes(t)
	raw[len(raw)-1] ^= 0x40 // flip a payload bit
	if _, err := NewDecoder(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestDecoderMissingSection(t *testing.T) {
	dec, err := NewDecoder(bytes.NewReader(snapshotBytes(t)))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if _, err := dec.Section("nope"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := dec.Section(name); err != nil {
			t.Errorf("Section(%q): %v", name, err)
		}
	}
}

func TestReaderStickyErrorAndClose(t *testing.T) {
	enc := NewEncoder("m")
	w := enc.Section("s")
	w.Int(7)
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dec.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Int()
	_ = r.F64() // past the end: sets the sticky error
	if r.Err() == nil {
		t.Fatal("expected sticky error after overread")
	}
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Close = %v, want ErrCorrupt", err)
	}

	// A reader that under-consumes must also fail Close.
	r2, _ := dec.Section("s")
	if err := r2.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("under-consumed Close = %v, want ErrCorrupt", err)
	}
}

// A hostile slice length must not cause a huge allocation or a panic.
func TestReaderImplausibleSliceLength(t *testing.T) {
	enc := NewEncoder("m")
	w := enc.Section("s")
	w.Uvarint(1 << 50) // claimed element count with no payload behind it
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := dec.Section("s")
	if got := r.F64s(); got != nil {
		t.Errorf("F64s = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", r.Err())
	}
}

// A hand-crafted header claiming a multi-gigabyte section must fail on the
// missing payload without allocating the claimed size up front.
func TestDecoderHostileSectionLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{1, 0}) // version 1 LE
	w := &Writer{buf: &buf}
	w.String("m")
	w.Uvarint(1)       // one section
	w.String("huge")   // name
	w.Uvarint(1 << 31) // claimed 2 GiB payload
	w.U32(0)           // bogus crc
	// No payload bytes follow.
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestFileStem(t *testing.T) {
	for name, want := range map[string]string{
		"R*-tree": "r-tree", "VA+file": "va-file", "iSAX2+": "isax2",
		"ADS+": "ads", "ADS-FULL": "ads-full", "M-tree": "m-tree",
	} {
		if got := FileStem(name); got != want {
			t.Errorf("FileStem(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestEncoderRejectsDuplicateSections(t *testing.T) {
	enc := NewEncoder("m")
	enc.Section("dup").Int(1)
	enc.Section("dup").Int(2)
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("WriteTo = %v, want ErrCorrupt", err)
	}
}
