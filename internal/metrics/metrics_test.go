package metrics

import (
	"testing"
	"testing/quick"
)

func TestPrecisionAtK(t *testing.T) {
	tests := []struct {
		retrieved []int64
		group     int64
		want      float64
	}{
		{[]int64{1, 1, 1, 1}, 1, 1},
		{[]int64{1, 1, 2, 3}, 1, 0.5},
		{[]int64{2, 3, 4, 5}, 1, 0},
		{nil, 1, 0},
		{[]int64{7}, 7, 1},
	}
	for _, tc := range tests {
		if got := PrecisionAtK(tc.retrieved, tc.group); got != tc.want {
			t.Errorf("PrecisionAtK(%v, %d) = %v, want %v", tc.retrieved, tc.group, got, tc.want)
		}
	}
}

func TestSweepKnownDistribution(t *testing.T) {
	similar := []float64{0.5, 0.4, 0.3, 0.02, 0.005}
	dissimilar := []float64{0.02, 0.005, 0.001, 0, 0}
	pts := Sweep(similar, dissimilar, []float64{0.01, 0.1})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].TPR != 0.8 || pts[0].FPR != 0.2 {
		t.Fatalf("at 0.01: TPR=%v FPR=%v, want 0.8/0.2", pts[0].TPR, pts[0].FPR)
	}
	if pts[1].TPR != 0.6 || pts[1].FPR != 0 {
		t.Fatalf("at 0.1: TPR=%v FPR=%v, want 0.6/0", pts[1].TPR, pts[1].FPR)
	}
}

func TestSweepMonotone(t *testing.T) {
	f := func(sims, diss []float64) bool {
		ths := []float64{0, 0.1, 0.2, 0.5, 0.9}
		pts := Sweep(sims, diss, ths)
		for i := 1; i < len(pts); i++ {
			if pts[i].TPR > pts[i-1].TPR || pts[i].FPR > pts[i-1].FPR {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepEmptyInputs(t *testing.T) {
	pts := Sweep(nil, nil, []float64{0.5})
	if pts[0].TPR != 0 || pts[0].FPR != 0 {
		t.Fatal("empty inputs should give zero rates")
	}
}

func TestUniqueLocations(t *testing.T) {
	lats := []float64{1, 1, 2, 2, 3}
	lons := []float64{1, 1, 2, 2.5, 3}
	if got := UniqueLocations(lats, lons); got != 4 {
		t.Fatalf("UniqueLocations = %d, want 4", got)
	}
	if got := UniqueLocations(nil, nil); got != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestUniqueLocationsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	UniqueLocations([]float64{1}, nil)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 5 || Quantile(v, 0.5) != 3 {
		t.Fatalf("quantiles wrong: %v %v %v", Quantile(v, 0), Quantile(v, 0.5), Quantile(v, 1))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// Input must not be mutated.
	if v[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}
