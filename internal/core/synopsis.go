package core

import (
	"math"

	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/storage"
)

// synopsisEps is the relative slack a synopsis bound gives up to stay sound
// under float32 storage: sixteen float32 roundings. A stored record differs
// from the exact one by at most 2⁻²⁴ of its norm, and the float64 arithmetic
// that produced it by far less; the rest is margin, so that a bound equal to
// the distance mathematically (piecewise-constant series) still lands below
// the distance the refine kernel computes.
const synopsisEps = 1.0 / (1 << 20)

// synopsisAbsSlack covers what the relative slack cannot: a record value in
// float32's subnormal range is rounded by up to 2⁻¹⁵⁰ whatever its size.
const synopsisAbsSlack = 1.0 / (1 << 100)

// Synopses is an id-indexed sidecar of per-series block moments — for every
// simd.BlockLen-value block of a series the pair (√w·mean, √w·std), two
// float32 values per sixteen, an eighth of the raw bytes — held by the trees
// that keep no other per-member summary (DSTree, M-tree) as the second-level
// filter of their leaves (MemberBound).
//
// Soundness. Within a block of w values, Σ(q−c)² = w·((μq−μc)² + var(q−c))
// and var(q−c) ≥ (σq−σc)², so the plain squared Euclidean distance between
// two records — simd.SquaredDist, the scan's own kernel — never exceeds the
// squared distance between the series. Rounding the records to float32 moves
// each by at most ε·‖record‖, and ‖record‖ = ‖series‖ (w·(μ²+σ²) = Σx²), so
// by the triangle inequality √d ≥ √b − ε·(‖q̂‖ + ‖ĉ‖): the bound handed out
// is max(0, √b − slack)², with the largest member norm standing in for ‖ĉ‖.
// A non-finite record or query makes slack or b non-finite and the bound 0:
// it prunes nothing.
//
// The sidecar is derived from the raw data (Extend), never stored: a
// snapshot carries no section for it and cannot disagree with its data.
// Records are indexed by series id, so a leaf split moves nothing. Extend
// may reallocate; callers exclude concurrent queries (the engine's ingest
// lock does).
type Synopses struct {
	recLen    int       // float32 values per record
	zero      []float32 // the all-zero record, see normSq
	recs      []float32
	maxNormSq float64 // largest squared record norm: ‖ĉ‖² for the slack
}

// Extend derives the records of series [from, to) of f. from must be the
// number of records held — ids are dense and derived in order.
func (s *Synopses) Extend(f *storage.SeriesFile, from, to int) {
	if s.recLen == 0 {
		s.recLen = simd.BlockMomentsLen(f.SeriesLen())
		s.zero = make([]float32, s.recLen)
	}
	if from*s.recLen != len(s.recs) {
		panic("core: synopses extended out of order")
	}
	s.recs = append(s.recs, make([]float32, (to-from)*s.recLen)...)
	for id := from; id < to; id++ {
		rec := s.recs[id*s.recLen : (id+1)*s.recLen]
		simd.BlockMoments(f.Peek(id), rec)
		// A NaN norm must stick, so the test is "not known to be smaller".
		if n2 := s.normSq(rec); !(n2 <= s.maxNormSq) {
			s.maxNormSq = n2
		}
	}
}

// Bytes returns the sidecar's memory footprint.
func (s *Synopses) Bytes() int64 { return 4 * int64(len(s.recs)) }

// RecordLen returns the number of float32 values in one record — the size
// of the buffer Query fills.
func (s *Synopses) RecordLen() int { return s.recLen }

// Query summarizes q into rec (RecordLen values, owned by the caller for the
// query's lifetime) and returns the query's view of the sidecar.
func (s *Synopses) Query(q series.Series, rec []float32) SynopsisQuery {
	simd.BlockMoments(q, rec)
	norms := math.Sqrt(s.normSq(rec)) + math.Sqrt(s.maxNormSq)
	return SynopsisQuery{s: s, rec: rec, slack: synopsisEps*norms + synopsisAbsSlack}
}

// SynopsisQuery bounds one query against the members' records.
type SynopsisQuery struct {
	s     *Synopses
	rec   []float32 // the query's own record
	slack float64
}

// Bound is the MemberBound of the sidecar: a squared lower bound on the
// distance between the query and series id.
func (sq *SynopsisQuery) Bound(id int) float64 {
	n := sq.s.recLen
	return sq.Loosen(simd.SquaredDist(sq.rec, sq.s.recs[id*n:(id+1)*n]))
}

// Loosen returns max(0, √b − slack)² for b, a squared bound the query's
// float64 arithmetic produced against summaries of the members, so that
// rounding never lifts it above the distance the refine kernel computes: a
// tie must reach the refine loop to win on its smaller id. Besides the
// sidecar's own records it serves the DSTree's node bounds, whose EAPCA
// means and deviations come from prefix sums: once one query element
// dwarfs the rest (1e19 against unit values) the sums cancel, and a node
// bound lands an ulp or two above a tied member's distance. Over walks of
// length 64 and 256 with one element anywhere from 1 to 1e38, √b exceeded
// the nearest member's √d by at most 6.4e-16·(‖q‖ + ‖ĉ‖), far inside the
// slack.
func (sq *SynopsisQuery) Loosen(b float64) float64 {
	r := math.Sqrt(b) - sq.slack
	if !(r > 0) { // also a NaN: a non-finite record or query prunes nothing
		return 0
	}
	return r * r
}

// normSq returns ‖rec‖² as the record's squared distance from the all-zero
// record, on the kernel the bounds use (a scalar sum cost a fifth of the
// derive pass).
func (s *Synopses) normSq(rec []float32) float64 { return simd.SquaredDist(rec, s.zero) }
