package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"hydra/internal/persist"
	"hydra/internal/stats"
)

// ErrSnapshotMismatch is the sentinel wrapped by LoadIndex failures where
// the snapshot is intact but belongs to different data (shape or
// fingerprint disagreement with the collection). The file is not corrupt —
// resilient loaders rebuild instead of quarantining it.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match collection")

// Persistable is implemented by methods whose built state can be saved to a
// versioned snapshot (package persist) and reattached to a collection later.
// A loaded index must answer KNN bit-identically to a freshly built one —
// including adaptive state such as ADS+'s materialized leaves. All
// tree-backed methods implement it; plain scans (UCR-Suite, MASS) have no
// build state to persist and do not.
type Persistable interface {
	Method
	// BuildOptions returns the effective options the index was built with
	// (after WithDefaults); they are stored in the snapshot and passed back
	// to the factory on load.
	BuildOptions() Options
	// EncodeIndex appends the method's payload sections to the snapshot.
	// The method must be built.
	EncodeIndex(enc *persist.Encoder) error
	// DecodeIndex restores the method from snapshot sections and attaches it
	// to c, leaving it ready to answer queries. The method must be fresh
	// (never built or loaded).
	DecodeIndex(dec *persist.Decoder, c *Collection) error
}

// commonSection is the snapshot section written by SaveIndex and verified by
// LoadIndex: the collection fingerprint and the build options.
const commonSection = "common"

// SaveIndex writes a complete snapshot of the built method m over collection
// c: the persist envelope, the common section (collection fingerprint +
// build options), and the method's own payload sections.
func SaveIndex(m Persistable, c *Collection, w io.Writer) error {
	enc := persist.NewEncoder(m.Name())
	cw := enc.Section(commonSection)
	cw.Int(c.File.Len())
	cw.Int(c.File.SeriesLen())
	cw.U32(Fingerprint(c))
	writeOptions(cw, m.BuildOptions())
	if err := m.EncodeIndex(enc); err != nil {
		return fmt.Errorf("core: encoding %s index: %w", m.Name(), err)
	}
	if _, err := enc.WriteTo(w); err != nil {
		return fmt.Errorf("core: writing %s snapshot: %w", m.Name(), err)
	}
	return nil
}

// LoadIndex reads a snapshot from r, instantiates the method it names via
// the registry, verifies that the snapshot belongs to collection c, and
// reattaches the index state. The returned method answers queries exactly
// as the instance that was saved.
func LoadIndex(r io.Reader, c *Collection) (Persistable, error) {
	dec, err := persist.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	cr, err := dec.Section(commonSection)
	if err != nil {
		return nil, err
	}
	count := cr.Int()
	length := cr.Int()
	fp := cr.U32()
	opts := readOptions(cr)
	if err := cr.Close(); err != nil {
		return nil, fmt.Errorf("core: common section: %w", err)
	}
	if count != c.File.Len() || length != c.File.SeriesLen() {
		return nil, fmt.Errorf("%w: snapshot of %d×%d series, collection of %d×%d",
			ErrSnapshotMismatch, count, length, c.File.Len(), c.File.SeriesLen())
	}
	if got := Fingerprint(c); fp != got {
		return nil, fmt.Errorf("%w: snapshot fingerprint %08x, collection %08x (different data?)",
			ErrSnapshotMismatch, fp, got)
	}
	m, err := New(dec.Method(), opts)
	if err != nil {
		return nil, err
	}
	p, ok := m.(Persistable)
	if !ok {
		return nil, fmt.Errorf("core: method %q does not support snapshots", dec.Method())
	}
	if err := p.DecodeIndex(dec, c); err != nil {
		return nil, fmt.Errorf("core: decoding %s index: %w", dec.Method(), err)
	}
	return p, nil
}

// LoadIndexInstrumented loads a snapshot with build-stats instrumentation:
// the returned stats carry the decode wall time, the simulated I/O of
// reading the snapshot bytes sequentially from disk, and FromSnapshot set —
// the build-once/query-many counterpart of BuildInstrumented.
func LoadIndexInstrumented(r io.Reader, c *Collection) (Persistable, stats.BuildStats, error) {
	before := c.Counters.Snapshot()
	start := time.Now()
	cr := &countingReader{r: r}
	m, err := LoadIndex(cr, c)
	// Reading the snapshot file is one sequential pass over its bytes.
	c.Counters.ChargeSeq(cr.n)
	bs := stats.BuildStats{
		CPUTime:      time.Since(start),
		IO:           c.Counters.Snapshot().Sub(before),
		Finished:     err == nil,
		FromSnapshot: true,
	}
	return m, bs, err
}

// countingReader counts bytes delivered to the decoder so the snapshot read
// can be charged to the simulated disk.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Fingerprint returns a cheap, deterministic hash of the collection a
// snapshot binds to: series count, length, and a CRC-32 over up to 64 evenly
// sampled series (full data at small sizes). Loading a snapshot against a
// collection with a different fingerprint fails rather than silently
// answering queries from the wrong index.
func Fingerprint(c *Collection) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	n := c.File.Len()
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	h.Write(b[:])
	binary.LittleEndian.PutUint32(b[:], uint32(c.File.SeriesLen()))
	h.Write(b[:])
	step := 1
	if n > 64 {
		step = n / 64
	}
	for i := 0; i < n; i += step {
		for _, v := range c.File.Peek(i) {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// writeOptions stores every Options field. New fields append at the end
// under a format version bump (see docs/FORMAT.md for the rules). Workers
// is a run-time knob (intra-query parallelism), not build state, and is
// normalized to 0 in the snapshot — the same normalization the experiments
// cache key applies — so a loaded index never overrides the current run's
// -workers choice with the saving run's.
func writeOptions(w *persist.Writer, o Options) {
	w.Int(o.LeafSize)
	w.Int(o.Segments)
	w.Int(o.SAXBits)
	w.Int(o.SFAAlphabet)
	w.Bool(o.SFAEquiWidth)
	w.Int(o.VAQBitsPerDim)
	w.Int(o.SampleSize)
	w.Varint(o.MemoryBudgetBytes)
	w.Varint(o.Seed)
	w.Int(0) // Workers slot
}

// readOptions mirrors writeOptions.
func readOptions(r *persist.Reader) Options {
	return Options{
		LeafSize:          r.Int(),
		Segments:          r.Int(),
		SAXBits:           r.Int(),
		SFAAlphabet:       r.Int(),
		SFAEquiWidth:      r.Bool(),
		VAQBitsPerDim:     r.Int(),
		SampleSize:        r.Int(),
		MemoryBudgetBytes: r.Varint(),
		Seed:              r.Varint(),
		Workers:           r.Int(),
	}
}

// SnapshotCachePath derives the snapshot-cache file for (method,
// collection, options): the key hashes the collection fingerprint and
// every build-relevant option (Workers normalized away — intra-query
// parallelism does not affect the build), so a changed dataset or
// parametrization misses the cache instead of loading a wrong index.
// The experiments harness (hydra-bench -index) and the public package's
// WithIndexDir cache share this one key format, which is what keeps their
// cache directories interchangeable. An empty dir means no cache: the path
// is empty too, and CachedBuild only builds.
func SnapshotCachePath(dir, name string, c *Collection, opts Options) string {
	if dir == "" {
		return ""
	}
	opts.Workers = 0
	key := crc32.ChecksumIEEE([]byte(fmt.Sprintf("%08x|%+v", Fingerprint(c), opts)))
	return filepath.Join(dir, fmt.Sprintf("%s-%08x%s", persist.FileStem(name), key, persist.SnapshotExt))
}

// SaveSnapshotFile writes a snapshot to path with write-then-rename (and
// creates the parent directory), so a crashed process cannot leave a
// truncated file that every later run would try — and fail — to load.
func SaveSnapshotFile(p Persistable, c *Collection, path string) error {
	return persist.AtomicWrite(path, 0o644, func(w io.Writer) error {
		return SaveIndex(p, c, w)
	})
}

// IsCorruptSnapshot reports whether err means the snapshot file itself is
// damaged — wrong magic, failed checksum, truncation, or structural
// corruption — rather than from another format version or other data.
func IsCorruptSnapshot(err error) bool {
	return errors.Is(err, persist.ErrMagic) ||
		errors.Is(err, persist.ErrChecksum) ||
		errors.Is(err, persist.ErrTruncated) ||
		errors.Is(err, persist.ErrCorrupt)
}

// CachedBuild is the one snapshot cache, behind the public package's
// WithIndexDir and hydra-bench -index. With a path and a Persistable m, it
// loads the snapshot at path when one is there and intact, and otherwise
// builds m over c and saves the snapshot there. A corrupt entry is
// quarantined aside (path + ".quarantined") first, so the save reseeds a
// clean path and the damage stays inspectable; a stale one (other data or
// version) is simply replaced. Without either it only builds. ctx is
// checked between the build and the save. A loaded run is marked
// BuildStats.FromSnapshot.
func CachedBuild(ctx context.Context, m Method, c *Collection, path string) (Method, stats.BuildStats, error) {
	p, cached := m.(Persistable)
	cached = cached && path != ""
	if cached {
		if f, err := os.Open(path); err == nil {
			loaded, bs, err := LoadIndexInstrumented(f, c)
			f.Close()
			if err == nil {
				return loaded, bs, nil
			}
			if IsCorruptSnapshot(err) {
				if _, qerr := persist.Quarantine(path); qerr == nil {
					persist.SweepQuarantined(filepath.Dir(path), 0, 0)
				}
			}
		}
	}
	bs, err := BuildInstrumented(m, c)
	if err == nil {
		err = Canceled(ctx)
	}
	if err == nil && cached {
		if err = SaveSnapshotFile(p, c, path); err != nil {
			err = fmt.Errorf("caching %s snapshot: %w", m.Name(), err)
		}
	}
	return m, bs, err
}

// Persistables lists the registered (visible) methods that support
// snapshots, in registration order — the method set hydra-build accepts for
// "-method all".
func Persistables() []string {
	var out []string
	for _, name := range registryOrder {
		if _, ok := registry[name](Options{}).(Persistable); ok {
			out = append(out, name)
		}
	}
	return out
}
