package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// N returns the number of observations.
func (e *QuantileEstimator) N() uint64 { return e.n }

// TestQuantileEstimatorVsExact checks the sketch against the exact
// nearest-rank quantile of the same sample stream: the estimate must lie
// within the √growth relative-error bound the bucket geometry promises,
// across distributions shaped like the scenario's freshness samples
// (lognormal body, Pareto tail) and across quantiles including p99.
func TestQuantileEstimatorVsExact(t *testing.T) {
	const growth = 1.05
	bound := math.Sqrt(growth) * (1 + 1e-9)
	dists := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*1.2 + 4) }},
		{"pareto", func(r *rand.Rand) float64 { return 50 * math.Pow(r.Float64(), -1/1.2) }},
		{"uniform", func(r *rand.Rand) float64 { return 1 + r.Float64()*1e4 }},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			est := NewQuantileEstimator(1e-3, 3.6e6, growth)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := d.draw(rng)
				est.Observe(v)
				samples = append(samples, v)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				exact := Quantile(samples, q)
				got := est.Quantile(q)
				if ratio := got / exact; ratio > bound || ratio < 1/bound {
					t.Fatalf("q=%v: estimate %v vs exact %v (ratio %v, bound %v)",
						q, got, exact, ratio, bound)
				}
			}
		})
	}
}

func TestQuantileEstimatorEdges(t *testing.T) {
	est := NewQuantileEstimator(1, 1000, 2)
	if got := est.Quantile(0.99); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
	if est.N() != 0 {
		t.Fatalf("empty sketch N = %d", est.N())
	}
	// Underflow and overflow clamp to the range bounds.
	est.Observe(-5)
	est.Observe(0)
	est.Observe(1e12)
	if est.N() != 3 {
		t.Fatalf("N = %d, want 3", est.N())
	}
	if got := est.Quantile(0); got < 1 || got > 2 {
		t.Fatalf("underflow estimate %v outside min bucket [1,2]", got)
	}
	if got := est.Quantile(1); got != 1000 {
		t.Fatalf("overflow estimate %v, want clamped 1000", got)
	}
	// Out-of-range q clamps instead of panicking.
	if got, want := est.Quantile(-3), est.Quantile(0); got != want {
		t.Fatalf("q<0 gave %v, want %v", got, want)
	}
	if got, want := est.Quantile(7), est.Quantile(1); got != want {
		t.Fatalf("q>1 gave %v, want %v", got, want)
	}
}

func TestQuantileEstimatorDeterministic(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(5))
		est := NewQuantileEstimator(1e-3, 3.6e6, 1.05)
		for i := 0; i < 5000; i++ {
			est.Observe(math.Exp(rng.NormFloat64() * 2))
		}
		return []float64{est.Quantile(0.5), est.Quantile(0.99)}
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic estimates: %v vs %v", a, b)
	}
}

func TestQuantileEstimatorPanicsOnBadConfig(t *testing.T) {
	for _, c := range [][3]float64{{0, 10, 1.05}, {1, 1, 1.05}, {1, 10, 1}, {-1, 10, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %v did not panic", c)
				}
			}()
			NewQuantileEstimator(c[0], c[1], c[2])
		}()
	}
}
