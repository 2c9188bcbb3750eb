package hydra_test

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra"
)

// nonFinite are the values every entry point must refuse.
var nonFinite = []struct {
	name string
	v    float32
}{
	{"NaN", float32(math.NaN())},
	{"+Inf", float32(math.Inf(1))},
	{"-Inf", float32(math.Inf(-1))},
}

// withValue returns a copy of row with row[pos] = v.
func withValue(row []float32, pos int, v float32) []float32 {
	out := append([]float32(nil), row...)
	out[pos] = v
	return out
}

// assertRefused fails unless err is the input-validation error naming the
// argument: not nil, not one of the API's typed sentinels, and a message
// naming what was refused.
func assertRefused(t *testing.T, err error, names string) {
	t.Helper()
	if err == nil {
		t.Fatalf("non-finite %s accepted", names)
	}
	if !strings.Contains(err.Error(), names) || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("error %q does not name %q as non-finite", err, names)
	}
	if hydra.IsCorruptSnapshot(err) {
		t.Fatalf("validation error %q classed as a corrupt snapshot", err)
	}
}

// TestNonFiniteQueryRefused: every query entry point refuses a query with
// a NaN or an infinity, on the scan and on an index, before it runs.
func TestNonFiniteQueryRefused(t *testing.T) {
	d := datasetFrom(t, rawRows(200, 64, 21))
	scan, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	index, err := hydra.BuildIndex(context.Background(), "DSTree", hydra.WithData(d), hydra.WithLeafSize(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entries := []struct {
		name string
		run  func(t *testing.T, e *hydra.Engine, q []float32) error
	}{
		{"Query", func(t *testing.T, e *hydra.Engine, q []float32) error { _, err := e.Query(ctx, q, 3); return err }},
		{"QueryWithStats", func(t *testing.T, e *hydra.Engine, q []float32) error {
			_, _, err := e.QueryWithStats(ctx, q, 3)
			return err
		}},
		{"QueryBatch", func(t *testing.T, e *hydra.Engine, q []float32) error {
			res, err := e.QueryBatch(ctx, [][]float32{d.Series(0), q}, 3)
			if err == nil && (res[0] == nil || res[1] != nil) {
				t.Fatalf("batch answered %v", res)
			}
			return err
		}},
		{"QueryBatchErrors", func(t *testing.T, e *hydra.Engine, q []float32) error {
			res, errs := e.QueryBatchErrors(ctx, [][]float32{q, d.Series(0)}, 3)
			if errs[1] != nil || res[1] == nil || res[0] != nil {
				t.Fatalf("the finite sibling failed beside the refused query: %v", errs[1])
			}
			return errs[0]
		}},
		{"QueryStream", func(t *testing.T, e *hydra.Engine, q []float32) error {
			var last hydra.StreamUpdate
			for u := range e.QueryStream(ctx, q, 3) {
				if !u.Final {
					t.Fatalf("refused stream reported progress %+v", u)
				}
				last = u
			}
			return last.Err
		}},
	}
	for _, ent := range entries {
		t.Run(ent.name, func(t *testing.T) {
			for _, e := range []*hydra.Engine{scan, index} {
				for _, nf := range nonFinite {
					assertRefused(t, ent.run(t, e, withValue(d.Series(3), 17, nf.v)), "query")
				}
			}
		})
	}
}

// TestNonFiniteDatasetRefused: NewDataset and NewWorkload refuse a row
// holding a NaN or an infinity and name it.
func TestNonFiniteDatasetRefused(t *testing.T) {
	rows := rawRows(4, 32, 22)
	for _, nf := range nonFinite {
		bad := append(append([][]float32(nil), rows[:2]...), withValue(rows[2], 31, nf.v), rows[3])
		_, err := hydra.NewDataset(bad)
		assertRefused(t, err, "series 2")
		_, err = hydra.NewWorkload(bad)
		assertRefused(t, err, "query 2")
	}
}

// TestNonFiniteFileRefused: OpenDataset and OpenWorkload refuse a file
// whose payload holds a NaN or an infinity, and name the file and series.
func TestNonFiniteFileRefused(t *testing.T) {
	d := datasetFrom(t, rawRows(5, 32, 23))
	dir := t.TempDir()
	good := filepath.Join(dir, "good.hyd")
	if err := d.Save(good); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// HYD1 | uint32 count | uint32 length | uint16 name length | name | values
	values := 14 + int(binary.LittleEndian.Uint16(blob[12:]))
	for _, nf := range nonFinite {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[values+4*(3*32+5):], math.Float32bits(nf.v))
		path := filepath.Join(dir, "bad.hyd")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := hydra.OpenDataset(path)
		assertRefused(t, err, path+": series 3")
		_, err = hydra.OpenWorkload(path)
		assertRefused(t, err, path+": query 3")
		_, err = hydra.Open(path)
		assertRefused(t, err, "series 3")
	}
	if _, err := hydra.OpenDataset(good); err != nil {
		t.Fatalf("finite file refused: %v", err)
	}
}

// TestNonFiniteAppendRefused: Append refuses a batch holding a NaN or an
// infinity as a whole — no series of it is applied and no WAL record is
// written — and the engine keeps ingesting.
func TestNonFiniteAppendRefused(t *testing.T) {
	rows := rawRows(60, 32, 24)
	dir := t.TempDir()
	e := ingestEngine(t, "UCR-Suite", rows[:50], dir)
	defer e.Close()
	ctx := context.Background()
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "ingest.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before, _ := e.IngestStats()
	size := walSize()
	for _, nf := range nonFinite {
		err := e.Append(ctx, rows[50], withValue(rows[51], 0, nf.v))
		assertRefused(t, err, "append series 1")
	}
	after, _ := e.IngestStats()
	if after.WALRecords != before.WALRecords || after.WALBytes != before.WALBytes || after.Appended != before.Appended {
		t.Fatalf("refused appends moved the log: before %+v, after %+v", before, after)
	}
	if got := walSize(); got != size || e.Len() != 50 {
		t.Fatalf("refused appends left a %d-byte WAL (was %d) and %d series", got, size, e.Len())
	}
	if err := e.Append(ctx, rows[50:52]...); err != nil || e.Len() != 52 {
		t.Fatalf("finite append after refusals: %v, %d series", err, e.Len())
	}
}
