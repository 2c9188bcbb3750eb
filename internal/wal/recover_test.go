package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hydra/internal/faultpoint"
)

// TestGoldenFrame pins the bytes Append puts on disk: length prefix, uvarint
// firstSeq (two bytes from 128 up), uvarint count, little-endian float32
// bits, CRC-32/IEEE of the payload. The frame encoder writes them in place;
// this is what keeps it byte-compatible with every log already written.
func TestGoldenFrame(t *testing.T) {
	const golden = "" +
		"13000000" + // payload length: 2 + 1 + 4 values × 4 bytes
		"ac02" + // firstSeq 300
		"02" + // count 2
		"0000803f" + "000000c0" + // 1, -2
		"0000003f" + "db0f4940" + // 0.5, float32(pi)
		"96bb1ec2" // crc32(payload)
	values := []float32{1, -2, 0.5, 3.14159274}
	if got := hex.EncodeToString(encodeFrame(300, 2, values)); got != golden {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, golden)
	}

	// The same bytes are what lands in the file, behind either header.
	for _, bind := range []*Binding{nil, {BaseCount: 300, BaseFP: 7}} {
		path := filepath.Join(t.TempDir(), "g.log")
		l := recoverT(t, path, 2, bind)
		if err := l.Append(300, values); err != nil {
			t.Fatal(err)
		}
		l.Close()
		data, _ := os.ReadFile(path)
		if got := hex.EncodeToString(data[len(header(2, bind)):]); got != golden {
			t.Fatalf("bind=%v: file holds %s after its header, want %s", bind, got, golden)
		}
	}
	if got, want := hex.EncodeToString(header(2, &Binding{BaseCount: 300, BaseFP: 7})),
		"485944434b4c"+"0200"+"02000000"+"2c01000000000000"+"07000000"; got != want {
		t.Fatalf("bound header %s, want %s", got, want)
	}
}

// recoverT opens a log of either kind the way the ingest layer does.
func recoverT(t testing.TB, path string, sl int, bind *Binding) *Log {
	t.Helper()
	l, _, err := Recover(path, sl, bind, SyncAlways, 0)
	if err == nil {
		err = l.Repair()
	}
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l
}

// threeRecords writes a three-record log (two series each) and returns its
// bytes and the offset each frame starts at, plus the end.
func threeRecords(t testing.TB, path string, sl int, bind *Binding) (data []byte, bounds []int) {
	t.Helper()
	first := uint64(0)
	if bind != nil {
		first = bind.BaseCount
	}
	l := recoverT(t, path, sl, bind)
	bounds = append(bounds, int(l.Size()))
	for i := uint64(0); i < 3; i++ {
		if err := l.Append(first+2*i, seriesBatch(i, 2, sl)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int(l.Size()))
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, bounds
}

// TestRecoverIsReadOnly: Recover never writes — not a torn tail's
// truncation, not a missing file's creation — until Repair is called.
func TestRecoverIsReadOnly(t *testing.T) {
	const sl = 4
	path := filepath.Join(t.TempDir(), "r.wal")
	if _, _, err := Recover(path, sl, nil, SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Recover created the missing file (stat: %v)", err)
	}

	data, bounds := threeRecords(t, path, sl, nil)
	torn := data[:bounds[3]-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Recover(path, sl, nil, SyncAlways, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("Recover of a torn log: %d records, err %v; want 2", len(recs), err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("Recover truncated the torn tail")
	}
	if err := l.Append(4, seriesBatch(9, 1, sl)); err == nil {
		t.Fatal("Append before Repair succeeded")
	}
	if err := l.Repair(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data[:bounds[2]]) {
		t.Fatal("Repair did not cut the file to its last intact frame")
	}
}

// TestMidFileDamage: a frame that fails to scan with an intact frame
// anywhere behind it is ErrCorrupt, whatever the damage did to the frame's
// own length field; the same damage in the last frame is a torn tail.
func TestMidFileDamage(t *testing.T) {
	const sl = 4
	path := filepath.Join(t.TempDir(), "m.wal")
	data, bounds := threeRecords(t, path, sl, nil)
	damage := map[string]func(b []byte, at int){
		"payload bit":  func(b []byte, at int) { b[at+9] ^= 0x10 },
		"length field": func(b []byte, at int) { b[at+1] ^= 0x7f },
		"crc":          func(b []byte, at int) { b[at+frameLen(b, at)-1] ^= 0x01 },
		"zeroed": func(b []byte, at int) {
			for i := at; i < at+frameLen(data, at); i++ {
				b[i] = 0
			}
		},
	}
	for name, hit := range damage {
		for frame := 0; frame < 3; frame++ {
			bad := append([]byte{}, data...)
			hit(bad, bounds[frame])
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs, err := Open(path, sl, SyncAlways, 0)
			if frame < 2 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s in frame %d: %d records, err %v; want ErrCorrupt", name, frame, len(recs), err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
					t.Fatalf("%s in frame %d: failed open modified the file", name, frame)
				}
				continue
			}
			if err != nil || len(recs) != 2 {
				t.Fatalf("%s in the last frame: %d records, err %v; want the 2 intact ones", name, len(recs), err)
			}
			l.Close()
		}
	}
}

// frameLen returns the length of the frame starting at b[at].
func frameLen(b []byte, at int) int {
	f, ok := frameShape(b[at:], 4)
	if !ok {
		panic("not a frame")
	}
	return f.size
}

// TestBoundHeader pins the bound-header contract: a log opens only over the
// base it was written for, only as the kind of file it is, and starts at its
// base; a legacy persist-envelope checkpoint is an alien file. Every refusal
// is typed and leaves the file alone.
func TestBoundHeader(t *testing.T) {
	const sl = 4
	dir := t.TempDir()
	bind := &Binding{BaseCount: 40, BaseFP: 0xabcd1234}
	boundPath, plainPath := filepath.Join(dir, "b.ckpt"), filepath.Join(dir, "p.wal")
	bound, _ := threeRecords(t, boundPath, sl, bind)
	threeRecords(t, plainPath, sl, nil)

	if _, recs, err := Recover(boundPath, sl, bind, SyncAlways, 0); err != nil || len(recs) != 3 || recs[0].FirstSeq != 40 {
		t.Fatalf("reopen over the same base: %d records, err %v", len(recs), err)
	}
	legacy := filepath.Join(dir, "legacy.ckpt")
	if err := os.WriteFile(legacy, append([]byte("HYDIDX\x01\x00"), make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	gapped := filepath.Join(dir, "gapped.ckpt")
	if err := os.WriteFile(gapped, append(header(sl, &Binding{BaseCount: 38, BaseFP: bind.BaseFP}), bound[headerLen+bindingLen:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		path string
		bind *Binding
		want error
	}{
		{"other base count", boundPath, &Binding{BaseCount: 41, BaseFP: bind.BaseFP}, ErrBinding},
		{"other fingerprint", boundPath, &Binding{BaseCount: 40, BaseFP: 1}, ErrBinding},
		{"bound opened as plain", boundPath, nil, ErrMagic},
		{"plain opened as bound", plainPath, bind, ErrMagic},
		{"legacy persist envelope", legacy, bind, ErrMagic},
		{"first record past the base", gapped, &Binding{BaseCount: 38, BaseFP: bind.BaseFP}, ErrCorrupt},
	} {
		before, _ := os.ReadFile(c.path)
		if _, _, err := Recover(c.path, sl, c.bind, SyncAlways, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
		if after, _ := os.ReadFile(c.path); !bytes.Equal(after, before) {
			t.Errorf("%s: refused open modified the file", c.name)
		}
	}
}

// TestAppendOverwritesTornBytes: appends are positional at the last intact
// frame, so a failed append's residue is overwritten by the next one and
// never ends up in the middle of the log.
func TestAppendOverwritesTornBytes(t *testing.T) {
	defer faultpoint.Reset()
	const sl = 4
	path := filepath.Join(t.TempDir(), "t.wal")
	l := recoverT(t, path, sl, nil)
	if err := l.Append(0, seriesBatch(0, 1, sl)); err != nil {
		t.Fatal(err)
	}
	faultpoint.ArmN(faultpoint.WALTornTail, 1)
	if err := l.Append(1, seriesBatch(1, 4, sl)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if err := l.Append(1, seriesBatch(2, 1, sl)); err != nil {
		t.Fatalf("append after a torn one: %v", err)
	}
	l.Close()
	_, recs, err := Open(path, sl, SyncAlways, 0)
	if err != nil || len(recs) != 2 || !floatsEqual(recs[1].Values, seriesBatch(2, 1, sl)) {
		t.Fatalf("recovered %d records, err %v; want both acked appends", len(recs), err)
	}
}

// TestAppendRefusesOversizedRecord: a record recovery would have to drop as
// implausible is refused at append time, not written and lost.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	const sl = 1 << 16
	l := recoverT(t, filepath.Join(t.TempDir(), "big.wal"), sl, nil)
	defer l.Close()
	if got, want := l.MaxBatch(), (maxPayload-20)/(4*sl); got != want {
		t.Fatalf("MaxBatch = %d, want %d", got, want)
	}
	if err := l.Append(0, make([]float32, (l.MaxBatch()+1)*sl)); err == nil {
		t.Fatal("append beyond MaxBatch accepted")
	}
	if l.Size() != int64(headerLen) {
		t.Fatalf("refused append changed the log: size %d", l.Size())
	}
}
