package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hydra"
	"hydra/internal/simd"
	"hydra/internal/wal"
)

// Direct-call probes of the traced run: each times an exported function of
// one layer on inputs shaped like the ones the workload feeds it.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probeNs times calls of fn, each doing ops units of work, and returns the
// median nanoseconds per unit over five batches.
func probeNs(calls, ops int, fn func()) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		batches[b] = float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
	}
	return median(batches)
}

// probeSIMD times the distance and lower-bound kernels: the raw-distance
// kernels on 256-long collection series against a real query and its real
// k-th-best bound, the bound kernels on the shapes the indexes call them
// with (16 segments at cardinality 256 for the code tables, 16-segment boxes,
// 8-segment EAPCA synopses).
func probeSIMD(r *result, d *hydra.Dataset, qs [][]float32, ref [][]hydra.Match) {
	q := qs[0]
	kth := ref[0][len(ref[0])-1].Dist
	bound := kth * kth
	ord := make([]int, len(q))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return math.Abs(float64(q[ord[a]])) > math.Abs(float64(q[ord[b]])) })
	const window = 64 // series cycled through: cache-resident, as in a scan's inner loop
	i := 0
	next := func() []float32 { i++; return d.Series(i % window) }
	r.layers["simd.sqdist_ns"] = probeNs(20000, 1, func() { sink += simd.SquaredDist(q, next()) })
	r.layers["simd.sqdist_ea_ns"] = probeNs(20000, 1, func() { sink += simd.SquaredDistEABlocked(q, next(), bound) })
	r.layers["simd.sqdist_ea_ordered_ns"] = probeNs(20000, 1, func() { sink += simd.SquaredDistEAOrderedBlocked(q, next(), ord, bound) })

	rng := rand.New(rand.NewSource(1))
	const dims, stride, cands = 16, 256, 4096
	table := make([]float64, dims*stride)
	for i := range table {
		table[i] = math.Abs(rng.NormFloat64())
	}
	codesT := make([]uint8, dims*cands)
	for i := range codesT {
		codesT[i] = uint8(rng.Intn(256))
	}
	out := make([]float64, cands)
	r.layers["simd.codebound_ns_per_code"] = probeNs(200, cands, func() { simd.CodeBoundBatchStride(table, stride, codesT, out) })

	box := func(n int) (v, lo, hi, w []float64) {
		v, lo, hi, w = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			c := rng.NormFloat64()
			lo[i], hi[i], w[i] = c-0.3, c+0.3, float64(seriesLen/n)
		}
		return
	}
	v, lo, hi, w := box(16)
	r.layers["simd.interval_ns"] = probeNs(200000, 1, func() { sink += simd.WeightedIntervalDistSq(v, lo, hi, w) })
	qm, minMean, maxMean, ew := box(8)
	qsd, minStd, maxStd, _ := box(8)
	r.layers["simd.eapca_ns"] = probeNs(200000, 1, func() { sink += simd.EAPCABound(qm, qsd, ew, minMean, maxMean, minStd, maxStd) })
}

// probeGather times hydra.Gather folding two shards' top-k answers into one.
func probeGather(r *result, ref [][]hydra.Match) {
	a, b := ref[0], ref[1]
	r.layers["core.gather_fold_us"] = probeNs(20000, 1, func() {
		g := hydra.NewGather(topK)
		g.Fold("shard0", a)
		g.Fold("shard1", b)
		sink += float64(len(g.Results()))
	}) / 1e3
}

// probeWAL times wal.Log.Append of one 16-series batch, called directly
// (sync off, so it measures framing, checksum and the write, not the disk).
func probeWAL(r *result, dir string, d *hydra.Dataset) error {
	log, _, err := wal.Open(filepath.Join(dir, "probe"+wal.Ext), seriesLen, wal.SyncOff, 0)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer log.Close()
	batch := make([]float32, 0, probeBatch*seriesLen)
	for i := 0; i < probeBatch; i++ {
		batch = append(batch, d.Series(i)...)
	}
	const appends = 512
	us := make([]float64, appends)
	for i := range us {
		start := time.Now()
		if err := log.Append(uint64(i*probeBatch), batch); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	r.layers["wal.append_us"] = median(us)
	return nil
}

// counts is one counting pass: a query list run once with QueryWithStats,
// every counter averaged per query. The list and the engine are fixed by the
// seed, so the counters repeat exactly run to run.
type counts struct {
	queries                                     int
	rawExamined, nodes, lbCalcs, distCalcs      float64
	seqOps, randOps, ioBytes                    float64
	allocs, allocBytes                          float64
	p50Ms, overheadUs, wallS, recall, guarantee float64
}

// countPass runs qs once on eng. exact are the exact answers recall is
// scored against; eps > 0 additionally scores the share of answers whose
// k-th distance is within (1+eps) of the exact one.
func countPass(eng *hydra.Engine, qs [][]float32, exact [][]hydra.Match, eps float64) (counts, error) {
	var c counts
	var ms, over []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, q := range qs {
		t0 := time.Now()
		got, st, err := eng.QueryWithStats(context.Background(), q, topK)
		wall := time.Since(t0)
		if err != nil {
			return c, fmt.Errorf("counting pass on %s, query %d: %w", eng.Method(), i, err)
		}
		ms = append(ms, float64(wall.Nanoseconds())/1e6)
		over = append(over, float64((wall-st.CPUTime).Nanoseconds())/1e3)
		c.rawExamined += float64(st.RawSeriesExamined)
		c.nodes += float64(st.NodesVisited)
		c.lbCalcs += float64(st.LBCalcs)
		c.distCalcs += float64(st.DistCalcs)
		c.seqOps += float64(st.IO.SeqOps)
		c.randOps += float64(st.IO.RandOps)
		c.ioBytes += float64(st.IO.TotalBytes())
		c.recall += recallAt(got, exact[i])
		if eps > 0 && len(got) > 0 && got[len(got)-1].Dist <= (1+eps)*exact[i][len(exact[i])-1].Dist {
			c.guarantee++
		}
	}
	c.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	n := float64(len(qs))
	c.queries = len(qs)
	// ms and over grow inside the pass; their appends are the bench's own
	// allocations, a constant handful per pass rather than per query.
	c.allocs = float64(after.Mallocs-before.Mallocs) / n
	c.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	for _, f := range []*float64{&c.rawExamined, &c.nodes, &c.lbCalcs, &c.distCalcs, &c.seqOps, &c.randOps, &c.ioBytes, &c.recall, &c.guarantee} {
		*f /= n
	}
	c.p50Ms, c.overheadUs = median(ms), median(over)
	return c, nil
}

// add folds another pass into c, weighting by query count, so a workload's
// storage.* and hydra.* rows cover all its classes.
func (c *counts) add(o counts) {
	tot := float64(c.queries + o.queries)
	mix := func(mine, theirs float64) float64 {
		return (mine*float64(c.queries) + theirs*float64(o.queries)) / tot
	}
	c.seqOps, c.randOps, c.ioBytes = mix(c.seqOps, o.seqOps), mix(c.randOps, o.randOps), mix(c.ioBytes, o.ioBytes)
	c.allocs, c.allocBytes = mix(c.allocs, o.allocs), mix(c.allocBytes, o.allocBytes)
	c.overheadUs = mix(c.overheadUs, o.overheadUs)
	c.queries += o.queries
}

// facadeLayers reports the storage and facade rows of a library workload
// from its pooled counting passes.
func facadeLayers(r *result, c counts) {
	r.layers["storage.seq_ops_per_query"] = c.seqOps
	r.layers["storage.rand_ops_per_query"] = c.randOps
	r.layers["storage.bytes_per_query"] = c.ioBytes
	r.layers["hydra.query_overhead_us"] = c.overheadUs
	r.layers["hydra.allocs_per_query"] = c.allocs
	r.layers["hydra.bytes_per_query"] = c.allocBytes
}

// probeSlowIndexes builds R*-tree and Stepwise — too slow to build or query
// at the tree-exact collection size within a run — over a slice of the
// collection and reports their reference rows, checking their answers
// against a scan of the same slice.
func probeSlowIndexes(r *result, slice *hydra.Dataset, qs [][]float32) error {
	scan, err := hydra.Open("", hydra.WithData(slice))
	if err != nil {
		return err
	}
	ref, err := referenceAnswers(scan, qs)
	if err != nil {
		return err
	}
	for _, m := range []string{"R*-tree", "Stepwise"} {
		var eng *hydra.Engine
		buildS, err := timed(func() (err error) {
			eng, err = hydra.BuildIndex(context.Background(), m, hydra.WithData(slice))
			return err
		})
		if err != nil {
			return fmt.Errorf("building %s over the slice: %w", m, err)
		}
		if _, err := referenceAnswers(eng, qs); err != nil { // warm scratch pools
			return err
		}
		c, err := countPass(eng, qs, ref, 0)
		if err != nil {
			return err
		}
		r.check(c.recall == 1)
		p := "index." + layerKey[m] + "."
		r.layers[p+"build_s"] = buildS
		r.layers[p+"query_p50_ms"] = c.p50Ms
		r.layers[p+"allocs_per_query"] = c.allocs
	}
	return nil
}

// probeBulkAppend measures each ingesting method's closed-loop append rate:
// pool's series appended in batches to an engine over base, no reader.
func probeBulkAppend(r *result, dir string, base *hydra.Dataset, pool [][]float32) error {
	for _, m := range ingestMethods {
		opts := []hydra.Option{hydra.WithData(base), hydra.WithIngestDir(filepath.Join(dir, "bulk-"+layerKey[m])), hydra.WithWALSync("off")}
		var eng *hydra.Engine
		var err error
		if m == "UCR-Suite" {
			eng, err = hydra.Open("", opts...)
		} else {
			eng, err = hydra.BuildIndex(context.Background(), m, opts...)
		}
		if err != nil {
			return fmt.Errorf("bulk append probe, %s: %w", m, err)
		}
		start := time.Now()
		for lo := 0; lo+probeBatch <= len(pool); lo += probeBatch {
			if err := eng.Append(context.Background(), pool[lo:lo+probeBatch]...); err != nil {
				eng.Close()
				return fmt.Errorf("bulk append probe, %s: %w", m, err)
			}
		}
		rate := float64(len(pool)/probeBatch*probeBatch) / time.Since(start).Seconds()
		r.check(eng.Len() == base.Len()+len(pool)/probeBatch*probeBatch)
		if err := eng.Close(); err != nil {
			return fmt.Errorf("bulk append probe, %s: %w", m, err)
		}
		r.layers["hydra.append_series_per_s."+layerKey[m]] = rate
	}
	return nil
}

// fileSize is a file's size in bytes, 0 if it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
