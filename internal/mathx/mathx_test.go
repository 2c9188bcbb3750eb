package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProbitRoundTrip(t *testing.T) {
	// Probit must invert the normal CDF to high precision.
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4} {
		x := Probit(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("Probit(%g)=%g, CDF back=%g", p, x, back)
		}
	}
}

func TestProbitEdges(t *testing.T) {
	if !math.IsInf(Probit(0), -1) {
		t.Errorf("Probit(0) should be -Inf")
	}
	if !math.IsInf(Probit(1), 1) {
		t.Errorf("Probit(1) should be +Inf")
	}
	if !math.IsNaN(Probit(-0.1)) || !math.IsNaN(Probit(1.1)) {
		t.Errorf("out-of-range p should give NaN")
	}
	if v := Probit(0.5); math.Abs(v) > 1e-12 {
		t.Errorf("Probit(0.5)=%g, want 0", v)
	}
}

func TestProbitSymmetryProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.5)
		if p == 0 {
			p = 0.25
		}
		return math.Abs(Probit(p)+Probit(1-p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGaussianBreakpoints(t *testing.T) {
	for _, a := range []int{2, 4, 8, 256} {
		bps := GaussianBreakpoints(a)
		if len(bps) != a-1 {
			t.Fatalf("alphabet %d: %d breakpoints, want %d", a, len(bps), a-1)
		}
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				t.Fatalf("alphabet %d: breakpoints not increasing", a)
			}
		}
		// Symmetric around zero.
		for i := range bps {
			if math.Abs(bps[i]+bps[len(bps)-1-i]) > 1e-9 {
				t.Fatalf("alphabet %d: breakpoints not symmetric", a)
			}
		}
	}
	if GaussianBreakpoints(1) != nil || GaussianBreakpoints(0) != nil {
		t.Errorf("tiny alphabets should give no breakpoints")
	}
	// Classic SAX table for a=4: ±0.6745 and 0.
	bps := GaussianBreakpoints(4)
	if math.Abs(bps[0]+0.6745) > 1e-3 || math.Abs(bps[1]) > 1e-9 || math.Abs(bps[2]-0.6745) > 1e-3 {
		t.Errorf("a=4 breakpoints %v, want approx [-0.6745 0 0.6745]", bps)
	}
}

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates x into the running statistics.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the running population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the running population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

func TestWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 2
		xs = append(xs, x)
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("Welford mean %v want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-v) > 1e-9 {
		t.Errorf("Welford var %v want %v", w.Var(), v)
	}
	if w.N() != 1000 {
		t.Errorf("Welford N %d want 1000", w.N())
	}
	var empty Welford
	if empty.Var() != 0 || empty.Std() != 0 {
		t.Errorf("empty Welford should be zero")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 96: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d)=false", v)
		}
	}
	for _, v := range []int{0, -2, 3, 96} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d)=true", v)
		}
	}
}
