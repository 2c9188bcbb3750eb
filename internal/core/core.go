// Package core defines the unified API of the suite: the Method interface
// implemented by all ten similarity search approaches, the collection wrapper
// that ties a dataset to its simulated disk file, the k-NN result set, the
// method registry, and the instrumented query runner.
//
// The scope matches the paper's: exact whole-matching k-NN queries (k=1 in
// the evaluation) under Euclidean distance on Z-normalized, univariate,
// fixed-length series.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// Match is one answer of a k-NN query.
type Match struct {
	// ID is the position of the matching series in the collection.
	ID int
	// Dist is the true Euclidean distance to the query.
	Dist float64
}

// Collection binds a dataset to its simulated raw-data file and I/O counters.
type Collection struct {
	Data     *dataset.Dataset
	File     *storage.SeriesFile
	Counters *storage.Counters
}

// NewCollection wraps a dataset with fresh counters and a simulated file.
// Datasets built arena-first (generators, dataset.LoadFile) are aliased — the
// file shares the dataset's flat backing, so replicas over one dataset cost
// no extra series memory; hand-assembled datasets are copied into a fresh
// arena once, here.
func NewCollection(d *dataset.Dataset) *Collection {
	c := &storage.Counters{}
	var f *storage.SeriesFile
	if flat := d.Flat(); flat != nil {
		f = storage.NewSeriesFileFlat(flat, d.Len(), d.SeriesLen(), c)
	} else {
		f = storage.NewSeriesFile(d.Series, c)
	}
	return &Collection{Data: d, File: f, Counters: c}
}

// Method is an exact whole-matching similarity search method.
type Method interface {
	// Name returns the method's display name (as used in the paper).
	Name() string
	// Build prepares the method over the collection (index construction, or
	// data re-organization for Stepwise; a no-op for plain scans). It must be
	// called exactly once before KNN.
	Build(c *Collection) error
	// KNN answers an exact k-nearest-neighbors query, returning matches
	// sorted by ascending distance (ties by ascending ID) and the per-query
	// cost counters (I/O and CPU time are filled in by the Run helper).
	//
	// Cancellation contract: the query polls ctx at block granularity
	// (CancelBlock candidates per poll in scan loops, one poll per node in
	// tree traversals) and returns ctx.Err() within one block of a cancel,
	// leaving the method unchanged and immediately reusable for the next
	// query. Queries that run to completion are bit-identical to the same
	// query under context.Background() — the polls read the context and
	// nothing else.
	KNN(ctx context.Context, q series.Series, k int) ([]Match, stats.QueryStats, error)
}

// TreeIndex is implemented by index methods that expose their tree structure
// for the paper's footprint measures (Figure 8).
type TreeIndex interface {
	Method
	TreeStats() stats.TreeStats
}

// ErrIngestUnsupported is returned by Engine.Append for methods that cannot
// absorb incremental inserts (their summarizations are built once over a
// frozen collection); callers fall back to a rebuild.
var ErrIngestUnsupported = errors.New("core: method does not support incremental ingestion")

// Ingester is implemented by methods that can absorb series appended to the
// collection after Build — the live-ingestion path behind Engine.Append.
type Ingester interface {
	Method
	// Insert incorporates the given collection positions (already present
	// in the Collection's SeriesFile) into the method's structures. The ids
	// are contiguous and ascending — a batch appended at the file's tail —
	// and each batch is passed exactly once, so methods may amortize
	// per-batch rebuild work (e.g. re-transposing a summary table once per
	// call). After Insert returns, KNN answers must be bit-identical to a
	// fresh Build over the grown collection.
	Insert(ids []int) error
}

// LeafBounder is implemented by indexes that can report, for each leaf, its
// member series and a lower-bounding distance from a query — the inputs of
// the paper's TLB measure (tightness of the lower bound, §4.2 measure 4).
type LeafBounder interface {
	// LeafMembers returns the series IDs stored in each leaf.
	LeafMembers() [][]int
	// LeafLB returns the (non-squared) lower-bounding distance between q and
	// leaf i.
	LeafLB(q series.Series, leaf int) float64
}

// Options carries the tunable parameters shared by the methods; zero values
// select the paper's defaults.
type Options struct {
	// LeafSize is the maximum number of series per index leaf (the paper's
	// most critical parameter, Figure 2).
	LeafSize int
	// Segments is the number of segments/coefficients for fixed
	// summarizations (paper: 16).
	Segments int
	// SAXBits is the maximum per-segment cardinality in bits for iSAX-based
	// methods (paper: 8, alphabet 256).
	SAXBits int
	// SFAAlphabet is the SFA alphabet size (paper's tuned value: 8).
	SFAAlphabet int
	// SFAEquiWidth selects equi-width MCB binning (default equi-depth).
	SFAEquiWidth bool
	// VAQBitsPerDim is the average per-dimension bit budget of the VA+file
	// (total budget = Segments × VAQBitsPerDim; default 8).
	VAQBitsPerDim int
	// SampleSize bounds training samples for SFA/VA+ (0 = all).
	SampleSize int
	// MemoryBudgetBytes caps the construction buffer of leaf-materializing
	// indexes (the paper's second tuning knob, §4.3.1: "internal buffers to
	// manage raw data that do not fit in memory during index building").
	// 0 means unlimited. When the collection exceeds the budget, leaf
	// materialization spills: every extra pass re-reads and re-writes the
	// data once (an external-memory multiway-merge model).
	MemoryBudgetBytes int64
	// Seed drives any randomized tie-breaking during construction.
	Seed int64
	// Workers caps the goroutines one query uses in the methods that split
	// their pass (currently the UCR-Suite scan, see ScanKNN): 0 or less uses
	// every core, 1 keeps the paper's serial execution. Results and
	// per-query counters are the same for every cap.
	Workers int
}

// WithDefaults returns o with unset fields replaced by the paper's defaults,
// scaled to the collection size n.
func (o Options) WithDefaults(n int) Options {
	if o.LeafSize <= 0 {
		// The paper's tuned leaf sizes (100K on 100GB collections) scale
		// with collection size; keep the same proportion, bounded below.
		o.LeafSize = n / 1000
		if o.LeafSize < 16 {
			o.LeafSize = 16
		}
	}
	if o.Segments <= 0 {
		o.Segments = 16
	}
	if o.SAXBits <= 0 {
		o.SAXBits = 8
	}
	if o.SFAAlphabet <= 0 {
		o.SFAAlphabet = 8
	}
	if o.VAQBitsPerDim <= 0 {
		o.VAQBitsPerDim = 8
	}
	return o
}

// KNNSet maintains the k best candidates seen so far (a bounded max-heap on
// squared distance) and exposes the pruning bound (the k-th best squared
// distance, or +Inf while fewer than k candidates are known).
type KNNSet struct {
	k    int
	heap []Match // max-heap by squared dist (Match.Dist holds squared here)
}

// NewKNNSet creates a result set of capacity k (k >= 1). The heap backing
// starts at min(k, 64) matches and grows as candidates arrive, so a k taken
// from a request allocates by what the set holds, not by what was asked.
func NewKNNSet(k int) *KNNSet {
	if k < 1 {
		k = 1
	}
	return &KNNSet{k: k, heap: make([]Match, 0, min(k, 64))}
}

// Reset empties the set and switches it to capacity k, reusing the heap
// backing — the allocation-free counterpart of NewKNNSet used by Scratch.
func (s *KNNSet) Reset(k int) {
	if k < 1 {
		k = 1
	}
	s.k = k
	s.heap = s.heap[:0]
}

// Bound returns the current pruning bound: the k-th smallest squared
// distance seen, or +Inf if fewer than k candidates have been added.
func (s *KNNSet) Bound() float64 {
	if len(s.heap) < s.k {
		return math.Inf(1)
	}
	return s.heap[0].Dist
}

// Add offers a candidate with the given squared distance. It reports whether
// the candidate entered the current top-k.
func (s *KNNSet) Add(id int, sqDist float64) bool {
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Match{ID: id, Dist: sqDist})
		s.up(len(s.heap) - 1)
		return true
	}
	top := s.heap[0]
	if sqDist > top.Dist || (sqDist == top.Dist && id >= top.ID) {
		return false
	}
	s.heap[0] = Match{ID: id, Dist: sqDist}
	s.down(0)
	return true
}

func (s *KNNSet) less(i, j int) bool {
	// Max-heap: the "largest" (worst) match at the root; ties by larger ID
	// so that equal-distance smaller IDs win the final cut deterministically.
	if s.heap[i].Dist != s.heap[j].Dist {
		return s.heap[i].Dist > s.heap[j].Dist
	}
	return s.heap[i].ID > s.heap[j].ID
}

func (s *KNNSet) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *KNNSet) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && s.less(l, largest) {
			largest = l
		}
		if r < n && s.less(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}

// Results returns the matches sorted by ascending true (square-rooted)
// distance, ties by ascending ID. The slice is freshly allocated — the one
// unavoidable allocation of a pooled-scratch query — so callers may keep it.
func (s *KNNSet) Results() []Match {
	out := make([]Match, len(s.heap))
	copy(out, s.heap)
	sortMatches(out)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}

// sortMatches orders by (Dist ascending, ID ascending) with an insertion
// sort: k stays small (the paper evaluates k=1), and avoiding sort.Slice
// keeps the result path free of closure and reflection allocations.
func sortMatches(m []Match) {
	for i := 1; i < len(m); i++ {
		x := m[i]
		j := i - 1
		for j >= 0 && (m[j].Dist > x.Dist || (m[j].Dist == x.Dist && m[j].ID > x.ID)) {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = x
	}
}

// ChargeMaterialization charges the I/O of writing the collection's raw
// data into index leaves under the options' memory budget: one sequential
// write when everything fits, plus one extra read+write round per additional
// buffer-sized chunk when it does not (spilling). This is how the paper's
// buffer-size knob affects the leaf-materializing indexes (iSAX2+, DSTree,
// SFA, R*-tree) while leaving ADS+ and the VA+file unaffected.
func ChargeMaterialization(c *Collection, opts Options) {
	size := c.File.SizeBytes()
	c.Counters.ChargeSeq(size) // the leaf write itself
	if opts.MemoryBudgetBytes <= 0 || size <= opts.MemoryBudgetBytes {
		return
	}
	passes := (size + opts.MemoryBudgetBytes - 1) / opts.MemoryBudgetBytes
	for p := int64(1); p < passes; p++ {
		c.Counters.ChargeSeq(size) // re-read
		c.Counters.ChargeSeq(size) // re-write
	}
}

// BruteForceKNN answers a k-NN query by charging a full sequential scan;
// it is the correctness oracle of the test suite.
func BruteForceKNN(c *Collection, q series.Series, k int) []Match {
	set := NewKNNSet(k)
	cur := c.File.Cursor()
	for i := 0; i < cur.Len(); i++ {
		set.Add(i, series.SquaredDist(q, cur.Read(i)))
	}
	cur.Flush()
	return set.Results()
}

// Factory builds a method with the given options.
type Factory func(opts Options) Method

var registry = map[string]Factory{}
var registryOrder []string

// Register adds a method factory under the given name. Index packages call
// this from init; duplicate names panic.
func Register(name string, f Factory) {
	RegisterHidden(name, f)
	registryOrder = append(registryOrder, name)
}

// RegisterHidden adds a factory resolvable by New but excluded from Names():
// variants that exist for persistence or build-cost comparisons without
// being part of the paper's evaluated set (e.g. ADS-FULL, §3.2). Hidden
// methods can be saved, loaded and queried like any other, but "all"-style
// method iteration never picks them up.
func RegisterHidden(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate method registration %q", name))
	}
	registry[name] = f
}

// ErrUnknownMethod is the sentinel wrapped by New's failure for a name no
// factory registered — also the typed face of loading a snapshot whose
// method this build does not know (version skew, not corruption).
var ErrUnknownMethod = errors.New("core: unknown method")

// New instantiates a registered method by name.
func New(name string, opts Options) (Method, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownMethod, name, Names())
	}
	return f(opts), nil
}

// Names lists the registered methods in registration order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}
