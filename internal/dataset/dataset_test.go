package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hydra/internal/series"
	"hydra/internal/transform/fft"
)

// Validate checks a collection's invariants: uniform lengths and
// Z-normalization.
func (d *Dataset) Validate() error {
	n := d.SeriesLen()
	for i, s := range d.Series {
		if len(s) != n {
			return fmt.Errorf("dataset %s: series %d has length %d, want %d", d.Name, i, len(s), n)
		}
		if !s.IsZNormalized(0.05) {
			return fmt.Errorf("dataset %s: series %d is not Z-normalized", d.Name, i)
		}
	}
	return nil
}

func TestGeneratorsProduceValidCollections(t *testing.T) {
	gens := map[string]func(n, l int, seed int64) *Dataset{
		"randomwalk": RandomWalk,
		"seismic":    Seismic,
		"astro":      Astro,
		"sald":       SALD,
		"deep1b":     Deep1B,
	}
	for name, gen := range gens {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			ds := gen(50, 96, 7)
			if ds.Len() != 50 || ds.SeriesLen() != 96 {
				t.Fatalf("size %dx%d", ds.Len(), ds.SeriesLen())
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if ds.SizeBytes() != 50*96*4 {
				t.Errorf("SizeBytes=%d", ds.SizeBytes())
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomWalk(10, 32, 42)
	b := RandomWalk(10, 32, 42)
	for i := range a.Series {
		for j := range a.Series[i] {
			if a.Series[i][j] != b.Series[i][j] {
				t.Fatalf("same seed produced different data at %d,%d", i, j)
			}
		}
	}
	c := RandomWalk(10, 32, 43)
	same := true
	for i := range a.Series {
		for j := range a.Series[i] {
			if a.Series[i][j] != c.Series[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical data")
	}
}

func TestGeneratorsHaveDistinctSpectra(t *testing.T) {
	// The simulated real datasets must differ in how concentrated their
	// energy is in the leading Fourier coefficients (their
	// "summarizability"), since that is what drives the paper's
	// dataset-dependent results. SALD (smoothed) must concentrate more than
	// Deep1B (uncorrelated dims).
	concentration := func(ds *Dataset) float64 {
		var frac float64
		for _, s := range ds.Series {
			X := make([]complex128, len(s))
			for i, v := range s {
				X[i] = complex(float64(v), 0)
			}
			fft.Forward(X, len(X))
			var lead, total float64
			for k := 1; k < len(X); k++ {
				e := real(X[k])*real(X[k]) + imag(X[k])*imag(X[k])
				if k <= 8 || k >= len(X)-8 {
					lead += e
				}
				total += e
			}
			frac += lead / total
		}
		return frac / float64(ds.Len())
	}
	sald := concentration(SALD(40, 128, 1))
	deep := concentration(Deep1B(40, 128, 1))
	if sald <= deep {
		t.Errorf("SALD concentration %.3f should exceed Deep1B %.3f", sald, deep)
	}
	if sald < 0.9 {
		t.Errorf("smoothed SALD should be highly concentrated, got %.3f", sald)
	}
}

func TestNumSeriesForGB(t *testing.T) {
	// 1 GB of length-256 float32 series at the paper's scale (factor 1).
	n := NumSeriesForGB(1, 256, 1)
	if n < 970000 || n > 980000 {
		t.Errorf("paper-scale count %d, want ~976562", n)
	}
	if NumSeriesForGB(0.0001, 256, ScaleQuick) != 16 {
		t.Errorf("tiny datasets should clamp to 16")
	}
	// Scaling must preserve ratios.
	a := NumSeriesForGB(100, 256, ScaleDefault)
	b := NumSeriesForGB(25, 256, ScaleDefault)
	ratio := float64(a) / float64(b)
	if math.Abs(ratio-4) > 0.01 {
		t.Errorf("100GB/25GB ratio %f, want 4", ratio)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"synthetic", "seismic", "astro", "sald", "deep1b"} {
		ds, err := ByName(name, 8, 32, 1)
		if err != nil || ds.Len() != 8 {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("nope", 8, 32, 1); err == nil {
		t.Errorf("unknown name should error")
	}
}

func TestSynthRandWorkload(t *testing.T) {
	w := SynthRand(20, 64, 9)
	if len(w.Queries) != 20 || w.Name != "Synth-Rand" {
		t.Fatalf("workload %s with %d queries", w.Name, len(w.Queries))
	}
	if err := w.Validate(64); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := w.Validate(32); err == nil {
		t.Errorf("wrong length should fail validation")
	}
}

func TestCtrlWorkloadDifficultyIncreases(t *testing.T) {
	ds := RandomWalk(100, 64, 3)
	w := Ctrl(ds, 50, 2.0, 4)
	if err := w.Validate(64); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Later queries carry more noise, so their distance to the nearest
	// dataset series should grow on average. Compare first and last deciles.
	nn := func(q series.Series) float64 {
		best := math.Inf(1)
		for _, s := range ds.Series {
			if d := series.SquaredDist(q, s); d < best {
				best = d
			}
		}
		return best
	}
	var early, late float64
	for i := 0; i < 10; i++ {
		early += nn(w.Queries[i])
		late += nn(w.Queries[len(w.Queries)-1-i])
	}
	if late <= early {
		t.Errorf("controlled workload difficulty did not increase: early %g late %g", early, late)
	}
}

func TestDeepOrig(t *testing.T) {
	w := DeepOrig(5, 96, 2)
	if len(w.Queries) != 5 || w.Name != "Deep-Orig" {
		t.Errorf("DeepOrig workload malformed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := RandomWalk(13, 24, 5)
	ds.Name = "roundtrip-test"
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := load(&buf, -1)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Name != ds.Name || got.Len() != ds.Len() || got.SeriesLen() != ds.SeriesLen() {
		t.Fatalf("header mismatch: %s %dx%d", got.Name, got.Len(), got.SeriesLen())
	}
	for i := range ds.Series {
		for j := range ds.Series[i] {
			if got.Series[i][j] != ds.Series[i][j] {
				t.Fatalf("value mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(bytes.NewReader([]byte("not a dataset")), -1); err == nil {
		t.Errorf("garbage should fail to load")
	}
	if _, err := load(bytes.NewReader(nil), -1); err == nil {
		t.Errorf("empty input should fail to load")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.hyd")
	ds := Seismic(7, 32, 9)
	if err := ds.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Len() != 7 {
		t.Errorf("loaded %d series", got.Len())
	}

	wpath := filepath.Join(dir, "wl.hyd")
	w := SynthRand(4, 32, 1)
	if err := w.SaveFile(wpath); err != nil {
		t.Fatalf("workload SaveFile: %v", err)
	}
	gw, err := LoadWorkloadFile(wpath)
	if err != nil {
		t.Fatalf("LoadWorkloadFile: %v", err)
	}
	if len(gw.Queries) != 4 {
		t.Errorf("loaded %d queries", len(gw.Queries))
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := RandomWalk(5, 16, 1)
	ds.Series[2] = append(ds.Series[2], 1) // wrong length
	if err := ds.Validate(); err == nil {
		t.Errorf("ragged collection should fail validation")
	}
	ds2 := RandomWalk(5, 16, 1)
	for j := range ds2.Series[1] {
		ds2.Series[1][j] = 100 // not normalized
	}
	if err := ds2.Validate(); err == nil {
		t.Errorf("unnormalized collection should fail validation")
	}
}

// TestLoadFileSizedByFile: LoadFile allocates a whole payload up front only
// when the file holds it. A header claiming 2^36 values in front of a few
// bytes fails on the short read without allocating the claim; a file cut
// inside its payload fails the same way; an intact file loads exactly what
// load reads from a stream.
func TestLoadFileSizedByFile(t *testing.T) {
	dir := t.TempDir()
	d := RandomWalk(300, 64, 3)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.hyd")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := load(bytes.NewReader(buf.Bytes()), -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile.Flat(), fromStream.Flat()) || fromFile.SeriesLen() != 64 || fromFile.Len() != 300 {
		t.Fatalf("file load %d×%d differs from the stream load", fromFile.Len(), fromFile.SeriesLen())
	}

	hostile := append([]byte(nil), buf.Bytes()[:14+len(d.Name)+64]...)
	binary.LittleEndian.PutUint32(hostile[4:], 1<<26)
	binary.LittleEndian.PutUint32(hostile[8:], 1<<10)
	cut := buf.Bytes()[:buf.Len()-5]
	for name, blob := range map[string][]byte{"hostile": hostile, "cut": cut} {
		path := filepath.Join(dir, name+".hyd")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadFile(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s file loaded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
			t.Errorf("%s file: allocated %d bytes before failing", name, n)
		}
	}
}
