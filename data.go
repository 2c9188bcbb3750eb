package hydra

import (
	"fmt"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/storage"
)

// Dataset is a handle on an in-memory collection of equal-length,
// Z-normalized series — the unit every engine is opened over. Handles are
// cheap to share: engines built over one Dataset alias its flat backing
// arena instead of copying the data.
type Dataset struct {
	d *dataset.Dataset
}

// checkFinite is the one finite-values check of the public boundary. It
// returns the input-validation error naming the argument (arg formatted
// with args) when values holds a NaN or an infinity, and nil otherwise;
// with l > 0 the values are series of length l laid back to back and the
// error names the series too. Queries are refused before they reach a
// method — a NaN distance passes every early-abandon test — and collection,
// workload and appended rows before anything stores or logs them.
func checkFinite(values []float32, l int, arg string, args ...any) error {
	i := simd.FirstNonFinite(values)
	if i < 0 {
		return nil
	}
	v, name := values[i], fmt.Sprintf(arg, args...)
	if l > 0 {
		name, i = fmt.Sprintf("%s %d", name, i/l), i%l
	}
	return fmt.Errorf("hydra: %s holds %v at position %d: values must be finite", name, v, i)
}

// OpenDataset reads a collection file in the suite's binary format (written
// by Dataset.Save or the hydra-gen CLI).
func OpenDataset(path string) (*Dataset, error) {
	d, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(d.Flat(), d.SeriesLen(), "%s: series", path); err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// NewDataset builds a collection from raw rows. Every row must have the
// same length; the values are copied into a fresh flat arena and
// Z-normalized in place (the distance model of the whole suite assumes
// Z-normalized series, §4.2 of the paper).
func NewDataset(rows [][]float32) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("hydra: empty dataset")
	}
	l := len(rows[0])
	if l == 0 {
		return nil, fmt.Errorf("hydra: zero-length series")
	}
	flat := storage.NewArena(len(rows) * l)
	for i, row := range rows {
		if len(row) != l {
			return nil, fmt.Errorf("hydra: series %d has length %d, want %d", i, len(row), l)
		}
		copy(flat[i*l:(i+1)*l], row)
	}
	if err := checkFinite(flat, l, "series"); err != nil {
		return nil, err
	}
	d := dataset.FromFlat("user", flat, len(rows), l)
	for _, s := range d.Series {
		s.ZNormalize()
	}
	return &Dataset{d: d}, nil
}

// Generate produces one of the suite's synthetic collections: "synthetic"
// (the paper's random-walk generator) or the statistical stand-ins for its
// four real datasets ("seismic", "astro", "sald", "deep1b").
func Generate(kind string, n, length int, seed int64) (*Dataset, error) {
	d, err := dataset.ByName(kind, n, length, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// Planted records where GenerateLongWalk planted its motif pairs and
// discord, so callers can assert the profile machinery recovers them.
type Planted = dataset.Planted

// GenerateLongWalk produces the matrix-profile workload's input: one long
// random-walk series (as a single-member collection, so it flows through
// every engine and file pipeline) with two planted motif pairs and one
// planted discord of length m. The returned Planted names their offsets;
// n must be at least 12·m so the planted segments stay non-overlapping.
func GenerateLongWalk(n, m int, seed int64) (*Dataset, Planted, error) {
	d, pl, err := dataset.LongWalk(n, m, seed)
	if err != nil {
		return nil, Planted{}, fmt.Errorf("hydra: %w", err)
	}
	return &Dataset{d: d}, pl, nil
}

// Save writes the collection in the suite's binary format.
func (d *Dataset) Save(path string) error { return d.d.SaveFile(path) }

// Name returns the collection's generator name ("synthetic", "user", ...).
func (d *Dataset) Name() string { return d.d.Name }

// Len returns the number of series in the collection.
func (d *Dataset) Len() int { return d.d.Len() }

// SeriesLen returns the length of each series.
func (d *Dataset) SeriesLen() int { return d.d.SeriesLen() }

// SizeBytes returns the raw size the collection occupies on the simulated
// disk (4 bytes per value).
func (d *Dataset) SizeBytes() int64 { return d.d.SizeBytes() }

// Series returns series i as a read-only view of the dataset's backing
// arena: do not mutate it (copy first if you need to).
func (d *Dataset) Series(i int) []float32 { return d.d.Series[i] }

// SeriesCountForGB translates a paper-scale collection size in GB into a
// series count at scale 1/scaleDivisor (1 reproduces the paper's sizes
// exactly; hydra-gen's -gb/-scale flags).
func SeriesCountForGB(gb float64, length int, scaleDivisor float64) int {
	return dataset.NumSeriesForGB(gb, length, 1/scaleDivisor)
}

// Workload is a handle on a query workload: a named list of query series,
// all of one length.
type Workload struct {
	w *dataset.Workload
}

// OpenWorkload reads a workload file (written by Workload.Save or
// hydra-gen).
func OpenWorkload(path string) (*Workload, error) {
	w, err := dataset.LoadWorkloadFile(path)
	if err != nil {
		return nil, err
	}
	for i, q := range w.Queries {
		if err := checkFinite(q, 0, "%s: query %d", path, i); err != nil {
			return nil, err
		}
	}
	return &Workload{w: w}, nil
}

// NewWorkload builds a workload from raw query rows; the values are copied
// and Z-normalized like NewDataset rows.
func NewWorkload(rows [][]float32) (*Workload, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("hydra: empty workload")
	}
	w := &dataset.Workload{Name: "user", Queries: make([]series.Series, len(rows))}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("hydra: query %d has length %d, want %d", i, len(row), len(rows[0]))
		}
		if err := checkFinite(row, 0, "query %d", i); err != nil {
			return nil, err
		}
		s := make(series.Series, len(row))
		copy(s, row)
		s.ZNormalize()
		w.Queries[i] = s
	}
	return &Workload{w: w}, nil
}

// RandomWorkload generates the paper's Synth-Rand workload: random-walk
// queries unrelated to any collection.
func RandomWorkload(n, length int, seed int64) *Workload {
	return &Workload{w: dataset.SynthRand(n, length, seed)}
}

// ControlledWorkload generates the paper's Synth-Ctrl workload: queries are
// collection members perturbed with up to maxNoise standard deviations of
// noise, which controls how selective the workload is.
func ControlledWorkload(d *Dataset, n int, maxNoise float64, seed int64) *Workload {
	return &Workload{w: dataset.Ctrl(d.d, n, maxNoise, seed)}
}

// DeepOrigWorkload generates the deep-descriptor query workload (the
// paper's Deep-Orig queries).
func DeepOrigWorkload(n, length int, seed int64) *Workload {
	return &Workload{w: dataset.DeepOrig(n, length, seed)}
}

// Save writes the workload in the suite's binary format.
func (w *Workload) Save(path string) error { return w.w.SaveFile(path) }

// Name returns the workload's generator name.
func (w *Workload) Name() string { return w.w.Name }

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.w.Queries) }

// Query returns query i as a read-only view; pass it straight to
// Engine.Query.
func (w *Workload) Query(i int) []float32 { return w.w.Queries[i] }

// Queries returns views of every query, aligned with Query — the slice to
// hand to Engine.QueryBatch.
func (w *Workload) Queries() [][]float32 {
	out := make([][]float32, len(w.w.Queries))
	for i, q := range w.w.Queries {
		out[i] = q
	}
	return out
}

// Validate checks that every query matches the collection's series length.
func (w *Workload) Validate(seriesLen int) error { return w.w.Validate(seriesLen) }
