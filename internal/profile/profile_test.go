package profile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/series"
)

// oracleProfile is the brute-force all-pairs oracle: per-window float64
// Z-normalization (exact constant detection, like Compute) followed by
// direct Euclidean distances, an entirely separate arithmetic path from the
// STOMP dot-product recurrence.
func oracleProfile(long series.Series, m, excl int) *Profile {
	n := len(long) - m + 1
	windows := make([][]float64, n)
	constant := make([]bool, n)
	slidingConstant(long, m, constant)
	for i := 0; i < n; i++ {
		w := make([]float64, m)
		var sum float64
		for j := 0; j < m; j++ {
			w[j] = float64(long[i+j])
			sum += w[j]
		}
		mu := sum / float64(m)
		var varw float64
		for j := range w {
			d := w[j] - mu
			varw += d * d
		}
		sd := math.Sqrt(varw / float64(m))
		if constant[i] {
			for j := range w {
				w[j] = 0
			}
		} else {
			for j := range w {
				w[j] = (w[j] - mu) / sd
			}
		}
		windows[i] = w
	}
	p := &Profile{
		M:         m,
		Exclusion: excl,
		Dist:      make([]float64, n),
		Neighbor:  make([]int, n),
	}
	for i := range p.Dist {
		p.Dist[i] = math.Inf(1)
		p.Neighbor[i] = -1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := j - i
			if d < 0 {
				d = -d
			}
			if d <= excl {
				continue
			}
			var s float64
			for t := range windows[i] {
				diff := windows[i][t] - windows[j][t]
				s += diff * diff
			}
			dist := math.Sqrt(s)
			if dist < p.Dist[i] || (dist == p.Dist[i] && j < p.Neighbor[i]) {
				p.Dist[i] = dist
				p.Neighbor[i] = j
			}
		}
	}
	return p
}

// randomWalk builds a deterministic random-walk series of length n.
func randomWalk(n int, seed int64) series.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(series.Series, n)
	var acc float64
	for i := range s {
		acc += rng.NormFloat64()
		s[i] = float32(acc)
	}
	return s
}

// plantMotif copies the m values at src to dst (with tiny noise when eps>0)
// so the two windows form a close pair.
func plantMotif(s series.Series, src, dst, m int, eps float64, rng *rand.Rand) {
	for i := 0; i < m; i++ {
		s[dst+i] = s[src+i] + float32(eps*rng.NormFloat64())
	}
}

func checkAgainstOracle(t *testing.T, long series.Series, m, excl int) {
	t.Helper()
	got, err := Compute(context.Background(), long, m, Options{ExclusionZone: excl})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	want := oracleProfile(long, m, got.Exclusion)
	if len(got.Dist) != len(want.Dist) {
		t.Fatalf("profile length %d, oracle %d", len(got.Dist), len(want.Dist))
	}
	const tol = 1e-4
	for i := range got.Dist {
		gd, wd := got.Dist[i], want.Dist[i]
		if math.IsInf(wd, 1) {
			if !math.IsInf(gd, 1) || got.Neighbor[i] != -1 {
				t.Fatalf("window %d: oracle has no neighbor, got dist=%g neighbor=%d", i, gd, got.Neighbor[i])
			}
			continue
		}
		if math.Abs(gd-wd) > tol {
			t.Fatalf("window %d: dist %g, oracle %g (Δ=%g)", i, gd, wd, gd-wd)
		}
		// The argmin may legitimately differ under near-ties; what must hold
		// is that the chosen neighbor's true distance equals the minimum.
		j := got.Neighbor[i]
		if j < 0 {
			t.Fatalf("window %d: finite dist %g but neighbor -1", i, gd)
		}
		var s float64
		wi, wj := oracleWindow(long, i, m), oracleWindow(long, j, m)
		for tt := range wi {
			d := wi[tt] - wj[tt]
			s += d * d
		}
		if trueDist := math.Sqrt(s); math.Abs(trueDist-wd) > tol {
			t.Fatalf("window %d: neighbor %d at true dist %g, oracle min %g", i, j, trueDist, wd)
		}
	}
}

// oracleWindow Z-normalizes window i in float64 with exact constant
// detection.
func oracleWindow(long series.Series, i, m int) []float64 {
	w := make([]float64, m)
	allEq := true
	for j := 0; j < m; j++ {
		w[j] = float64(long[i+j])
		if long[i+j] != long[i] {
			allEq = false
		}
	}
	if allEq {
		return make([]float64, m)
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	mu := sum / float64(m)
	var varw float64
	for _, v := range w {
		varw += (v - mu) * (v - mu)
	}
	sd := math.Sqrt(varw / float64(m))
	for j := range w {
		w[j] = (w[j] - mu) / sd
	}
	return w
}

func TestProfileMatchesOracleRandomWalk(t *testing.T) {
	for _, tc := range []struct{ n, m, excl int }{
		{256, 16, -1},
		{300, 32, 8},
		{128, 8, 0},
		{500, 50, -1},
	} {
		long := randomWalk(tc.n, int64(tc.n*31+tc.m))
		checkAgainstOracle(t, long, tc.m, tc.excl)
	}
}

func TestProfileMatchesOracleConstantSegments(t *testing.T) {
	// Random walk with two flat shelves (zero-variance windows) and a
	// fully-constant prefix: exercises const-vs-const (dist 0) and
	// const-vs-normal (dist √m) pairs.
	long := randomWalk(400, 7)
	for i := 0; i < 40; i++ {
		long[i] = 2.5
	}
	for i := 120; i < 170; i++ {
		long[i] = -1.25
	}
	for i := 300; i < 330; i++ {
		long[i] = 2.5
	}
	checkAgainstOracle(t, long, 16, -1)

	// Entirely constant series: every pair at distance 0.
	flat := make(series.Series, 200)
	for i := range flat {
		flat[i] = 3
	}
	checkAgainstOracle(t, flat, 16, -1)
}

func TestProfileMatchesOraclePlantedMotif(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	long := randomWalk(600, 42)
	m := 32
	plantMotif(long, 50, 400, m, 1e-3, rng)
	checkAgainstOracle(t, long, m, -1)

	p, err := Compute(context.Background(), long, m, Options{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	motifs := p.Motifs(1)
	if len(motifs) != 1 {
		t.Fatalf("expected 1 motif, got %d", len(motifs))
	}
	if motifs[0].A != 50 || motifs[0].B != 400 {
		t.Fatalf("planted pair (50, 400) not recovered: got (%d, %d) dist=%g",
			motifs[0].A, motifs[0].B, motifs[0].Dist)
	}
}

func TestParallelBitIdenticalToSerial(t *testing.T) {
	for _, n := range []int{64, 257, 1024} {
		long := randomWalk(n, int64(n))
		// Flat shelf so the parallel merge also crosses zero-variance cells.
		if n >= 257 {
			for i := n / 3; i < n/3+40; i++ {
				long[i] = 1
			}
		}
		m := 24
		serial, err := Compute(context.Background(), long, m, Options{Workers: 1})
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		for _, workers := range []int{2, 3, 4, 7, 16, -1} {
			par, err := Compute(context.Background(), long, m, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range serial.Dist {
				if math.Float64bits(par.Dist[i]) != math.Float64bits(serial.Dist[i]) {
					t.Fatalf("n=%d workers=%d window %d: dist bits differ: %v vs %v",
						n, workers, i, par.Dist[i], serial.Dist[i])
				}
				if par.Neighbor[i] != serial.Neighbor[i] {
					t.Fatalf("n=%d workers=%d window %d: neighbor %d vs %d",
						n, workers, i, par.Neighbor[i], serial.Neighbor[i])
				}
			}
		}
	}
}

func TestProfileCrossCheckSubseqBruteForce(t *testing.T) {
	// Independent oracle: for a sample of windows, a float32 brute force
	// (per-window ZNormalize + SquaredDist) finds the nearest non-trivial
	// window. float32 normalization means a looser tolerance than the
	// float64 oracle above.
	long := randomWalk(300, 5)
	for i := 100; i < 140; i++ {
		long[i] = 4 // exactly-constant shelf
	}
	m := 20
	p, err := Compute(context.Background(), long, m, Options{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	n := len(long) - m + 1
	window := func(i int) series.Series {
		w := make(series.Series, m)
		copy(w, long[i:i+m])
		return w.ZNormalize()
	}
	for i := 0; i < n; i += 13 {
		q, best := window(i), math.Inf(1)
		for j := 0; j < n; j++ {
			if j-i > p.Exclusion || i-j > p.Exclusion {
				best = math.Min(best, math.Sqrt(series.SquaredDist(q, window(j))))
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		if math.Abs(best-p.Dist[i]) > 1e-2 {
			t.Fatalf("window %d: profile dist %g, brute force %g", i, p.Dist[i], best)
		}
	}
}

func TestProfileErrorsAndDegenerate(t *testing.T) {
	long := randomWalk(64, 1)
	if _, err := Compute(context.Background(), long, 0, Options{}); err == nil {
		t.Fatal("m=0: expected error")
	}
	if _, err := Compute(context.Background(), long, 65, Options{}); err == nil {
		t.Fatal("m>n: expected error")
	}
	// m == n: exactly one window, nothing outside any exclusion zone.
	p, err := Compute(context.Background(), long, 64, Options{})
	if err != nil {
		t.Fatalf("m=n: %v", err)
	}
	if len(p.Dist) != 1 || !math.IsInf(p.Dist[0], 1) || p.Neighbor[0] != -1 {
		t.Fatalf("m=n: want single unmatched window, got %+v", p)
	}
	if got := p.Motifs(3); len(got) != 0 {
		t.Fatalf("no finite pairs but Motifs returned %v", got)
	}
	if got := p.Discords(3); len(got) != 0 {
		t.Fatalf("no finite pairs but Discords returned %v", got)
	}
}

func TestProfileCancellation(t *testing.T) {
	long := randomWalk(4096, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := Compute(ctx, long, 64, Options{Workers: workers}); err != context.Canceled {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}

func TestDiscordsFindPlantedAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	// Periodic base signal: every window has close neighbors one period
	// away — except the window covering the planted spike.
	long := make(series.Series, 800)
	for i := range long {
		long[i] = float32(math.Sin(2*math.Pi*float64(i)/40) + 0.01*rng.NormFloat64())
	}
	m := 40
	for i := 500; i < 500+m; i++ {
		long[i] += float32(6 * math.Exp(-0.05*float64(i-500-m/2)*float64(i-500-m/2)))
	}
	p, err := Compute(context.Background(), long, m, Options{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	ds := p.Discords(1)
	if len(ds) != 1 {
		t.Fatalf("expected 1 discord, got %d", len(ds))
	}
	if ds[0].Index < 500-m || ds[0].Index > 500+m {
		t.Fatalf("planted discord near 500 not recovered: got %d (dist %g)", ds[0].Index, ds[0].Dist)
	}
}

func TestMotifExclusionSeparatesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := randomWalk(900, 3)
	m := 32
	plantMotif(long, 100, 700, m, 1e-3, rng) // closest pair
	plantMotif(long, 300, 500, m, 5e-3, rng) // second, disjoint pair
	p, err := Compute(context.Background(), long, m, Options{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	motifs := p.Motifs(2)
	if len(motifs) != 2 {
		t.Fatalf("expected 2 motifs, got %d: %+v", len(motifs), motifs)
	}
	if motifs[0].A != 100 || motifs[0].B != 700 {
		t.Fatalf("first motif: want (100, 700), got (%d, %d)", motifs[0].A, motifs[0].B)
	}
	if motifs[1].A != 300 || motifs[1].B != 500 {
		t.Fatalf("second motif: want (300, 500), got (%d, %d)", motifs[1].A, motifs[1].B)
	}
	if motifs[0].Dist > motifs[1].Dist {
		t.Fatalf("motifs out of order: %g > %g", motifs[0].Dist, motifs[1].Dist)
	}
}

func FuzzProfile(f *testing.F) {
	f.Add(int64(1), 40, 8, uint8(1))
	f.Add(int64(2), 10, 8, uint8(0)) // n < 2m: at most a few windows
	f.Add(int64(3), 5, 8, uint8(4))  // m > n: must error, not panic
	f.Add(int64(4), 100, 1, uint8(2))
	f.Add(int64(5), 64, 64, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, m int, workers uint8) {
		if n < 0 || n > 2048 || m < 0 || m > 4096 {
			t.Skip()
		}
		long := randomWalk(n, seed)
		if n > 8 && seed%2 == 0 {
			for i := n / 4; i < n/2; i++ {
				long[i] = 1 // constant run
			}
		}
		serial, err := Compute(context.Background(), long, m, Options{Workers: 1})
		if err != nil {
			return // invalid m — error is the contract; the fuzzer checks no panic
		}
		par, err := Compute(context.Background(), long, m, Options{Workers: int(workers)})
		if err != nil {
			t.Fatalf("parallel errored where serial succeeded: %v", err)
		}
		for i := range serial.Dist {
			if math.Float64bits(par.Dist[i]) != math.Float64bits(serial.Dist[i]) ||
				par.Neighbor[i] != serial.Neighbor[i] {
				t.Fatalf("window %d: parallel (%v, %d) != serial (%v, %d)",
					i, par.Dist[i], par.Neighbor[i], serial.Dist[i], serial.Neighbor[i])
			}
		}
		serial.Motifs(3)
		serial.Discords(3)
	})
}
