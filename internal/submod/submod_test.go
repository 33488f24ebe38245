package submod

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				g.SetWeight(i, j, rng.Float64())
			}
		}
	}
	return g
}

// clusteredGraph builds a graph of k clusters of size sz with high
// intra-cluster and low inter-cluster weights.
func clusteredGraph(rng *rand.Rand, k, sz int) *Graph {
	g := NewGraph(k * sz)
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if i/sz == j/sz {
				g.SetWeight(i, j, 0.5+rng.Float64()*0.5)
			} else {
				g.SetWeight(i, j, rng.Float64()*0.005)
			}
		}
	}
	return g
}

func TestNewGraphSelfWeights(t *testing.T) {
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		if g.W[i][i] != 1 {
			t.Fatalf("self weight of %d is %v", i, g.W[i][i])
		}
	}
}

func TestNewGraphPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph(-1) did not panic")
		}
	}()
	NewGraph(-1)
}

func TestSetWeightSymmetricAndClamped(t *testing.T) {
	g := NewGraph(3)
	g.SetWeight(0, 1, 0.7)
	if g.W[0][1] != 0.7 || g.W[1][0] != 0.7 {
		t.Fatal("weights not symmetric")
	}
	g.SetWeight(0, 2, -1)
	if g.W[0][2] != 0 {
		t.Fatal("negative weight not clamped")
	}
	g.SetWeight(1, 2, 2)
	if g.W[1][2] != 1 {
		t.Fatal("weight above 1 not clamped")
	}
	g.SetWeight(1, 1, 0.2)
	if g.W[1][1] != 1 {
		t.Fatal("self weight must stay 1")
	}
}

func TestPartitionAllConnected(t *testing.T) {
	g := NewGraph(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.SetWeight(i, j, 0.9)
		}
	}
	labels := g.Partition(0.5)
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("fully connected graph should be one component, got %v", labels)
		}
	}
}

func TestPartitionAllIsolated(t *testing.T) {
	g := NewGraph(5)
	labels := g.Partition(0.5)
	seen := map[int]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("isolated nodes share a component: %v", labels)
		}
		seen[l] = true
	}
}

func TestPartitionChain(t *testing.T) {
	// 0-1-2 chained above threshold, 3-4 chained, so 2 components even
	// though 0 and 2 are not directly connected.
	g := NewGraph(5)
	g.SetWeight(0, 1, 0.8)
	g.SetWeight(1, 2, 0.8)
	g.SetWeight(3, 4, 0.8)
	labels := g.Partition(0.5)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("chain not merged: %v", labels)
	}
	if labels[3] != labels[4] || labels[0] == labels[3] {
		t.Fatalf("wrong components: %v", labels)
	}
	if comps := Components(labels); len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
}

func TestPartitionThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	g := randomGraph(rng, 20)
	prev := 0
	for _, tw := range []float64{0.01, 0.2, 0.5, 0.8, 1.01} {
		comps := len(Components(g.Partition(tw)))
		if comps < prev {
			t.Fatalf("component count decreased as threshold rose (tw=%v)", tw)
		}
		prev = comps
	}
	if prev != 20 {
		t.Fatalf("threshold above all weights should isolate every node, got %d", prev)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if Components(nil) != nil {
		t.Fatal("Components(nil) should be nil")
	}
}

func TestObjectiveEmptySetIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 8)
	o := NewObjective(g, Components(g.Partition(0.3)), 1, 1)
	if o.Value(nil) != 0 {
		t.Fatal("F(∅) != 0")
	}
}

func TestObjectiveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 10)
		o := NewObjective(g, Components(g.Partition(0.3)), 1, 1)
		perm := rng.Perm(10)
		prev := 0.0
		for i := 1; i <= 10; i++ {
			val := o.Value(perm[:i])
			if val < prev-1e-9 {
				t.Fatalf("objective decreased when adding elements: %v < %v", val, prev)
			}
			prev = val
		}
	}
}

// TestObjectiveSubmodular verifies the diminishing-returns property on
// random graphs: for A ⊆ B and v ∉ B,
// F(A∪{v})−F(A) ≥ F(B∪{v})−F(B).
func TestObjectiveSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		n := 6 + rng.Intn(6)
		g := randomGraph(rng, n)
		o := NewObjective(g, Components(g.Partition(rng.Float64())), rng.Float64()*2, rng.Float64()*2)
		perm := rng.Perm(n)
		v := perm[0]
		rest := perm[1:]
		bSize := 1 + rng.Intn(len(rest))
		aSize := rng.Intn(bSize + 1)
		b := rest[:bSize]
		a := b[:aSize]
		gainA := o.Value(append(append([]int{}, a...), v)) - o.Value(a)
		gainB := o.Value(append(append([]int{}, b...), v)) - o.Value(b)
		if gainA < gainB-1e-9 {
			t.Fatalf("submodularity violated: gainA=%v < gainB=%v (A=%v B=%v v=%d)", gainA, gainB, a, b, v)
		}
	}
}

func TestStateGainMatchesValueDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 9)
		o := NewObjective(g, Components(g.Partition(0.4)), 1.3, 0.7)
		st := NewState(o)
		var sel []int
		for i := 0; i < 5; i++ {
			v := rng.Intn(9)
			if st.inSet[v] {
				continue
			}
			want := o.Value(append(append([]int{}, sel...), v)) - o.Value(sel)
			if got := st.Gain(v); math.Abs(got-want) > 1e-9 {
				t.Fatalf("incremental gain %v != value difference %v", got, want)
			}
			st.Add(v)
			sel = append(sel, v)
		}
	}
}

func TestStateAddIdempotent(t *testing.T) {
	g := NewGraph(3)
	o := NewObjective(g, Components(g.Partition(0.5)), 1, 1)
	st := NewState(o)
	st.Add(1)
	st.Add(1)
	if len(st.Selected()) != 1 {
		t.Fatal("duplicate Add changed selection")
	}
	if st.Gain(1) != 0 {
		t.Fatal("gain of selected element should be 0")
	}
}

func TestGreedyRespectsbudget(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := randomGraph(rng, 12)
	o := NewObjective(g, Components(g.Partition(0.3)), 1, 1)
	if sel := Greedy(o, 4); len(sel) > 4 {
		t.Fatalf("greedy selected %d > budget 4", len(sel))
	}
	if sel := Greedy(o, 0); sel != nil {
		t.Fatal("budget 0 should select nothing")
	}
}

func TestLazyGreedyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(10)
		g := randomGraph(rng, n)
		o := NewObjective(g, Components(g.Partition(rng.Float64()*0.6)), 1, 1)
		budget := 1 + rng.Intn(n)
		naive := Greedy(o, budget)
		lazy := LazyGreedy(o, budget)
		if len(naive) != len(lazy) {
			t.Fatalf("lazy selected %d, naive %d", len(lazy), len(naive))
		}
		for i := range naive {
			if naive[i] != lazy[i] {
				t.Fatalf("selection differs at %d: naive %v lazy %v", i, naive, lazy)
			}
		}
	}
}

// TestGreedyApproximationGuarantee validates F(greedy) ≥ (1−1/e)·F(opt)
// on exhaustively-solvable instances.
func TestGreedyApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	bound := 1 - 1/math.E
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(5)
		g := randomGraph(rng, n)
		o := NewObjective(g, Components(g.Partition(0.35)), 1, 1)
		budget := 2 + rng.Intn(3)
		sel := Greedy(o, budget)
		_, opt := BruteForce(o, budget)
		if opt == 0 {
			continue
		}
		if got := o.Value(sel); got < bound*opt-1e-9 {
			t.Fatalf("greedy %v below (1-1/e)·opt %v", got, bound*opt)
		}
	}
}

func TestBruteForcePanicsOnLargeGraph(t *testing.T) {
	g := NewGraph(21)
	o := NewObjective(g, Components(g.Partition(0.5)), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForce on N=21 did not panic")
		}
	}()
	BruteForce(o, 3)
}

func TestSummarizeClusteredBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := clusteredGraph(rng, 4, 5) // 20 images in 4 similarity clusters
	res := Summarize(g, 0.02, Options{})
	if res.Budget != 4 {
		t.Fatalf("budget = %d, want 4 (number of clusters)", res.Budget)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %d images, want 4", len(res.Selected))
	}
	// The selection must cover all 4 clusters (diversity).
	covered := map[int]bool{}
	for _, v := range res.Selected {
		covered[v/5] = true
	}
	if len(covered) != 4 {
		t.Fatalf("selection covers %d/4 clusters: %v", len(covered), res.Selected)
	}
}

func TestSummarizeNoSimilarityKeepsAll(t *testing.T) {
	g := NewGraph(10) // no edges above any positive threshold
	res := Summarize(g, 0.02, Options{})
	if res.Budget != 10 || len(res.Selected) != 10 {
		t.Fatalf("dissimilar batch should keep everything: budget=%d selected=%d",
			res.Budget, len(res.Selected))
	}
}

func TestSummarizeEmptyGraph(t *testing.T) {
	res := Summarize(NewGraph(0), 0.02, Options{})
	if len(res.Selected) != 0 || res.Budget != 0 {
		t.Fatalf("empty graph summarize: %+v", res)
	}
}

func TestSummarizeFixedBudgetOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := clusteredGraph(rng, 4, 5)
	res := Summarize(g, 0.02, Options{FixedBudget: 2})
	if res.Budget != 2 || len(res.Selected) != 2 {
		t.Fatalf("fixed budget ignored: %+v", res)
	}
}

func TestSummarizeThresholdControlsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	g := clusteredGraph(rng, 3, 4)
	low := Summarize(g, 0.001, Options{})
	high := Summarize(g, 0.9, Options{})
	if low.Budget > high.Budget {
		t.Fatalf("budget should grow with threshold: %d vs %d", low.Budget, high.Budget)
	}
}

func TestSummarizeSelectionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := clusteredGraph(rng, 4, 5)
	a := Summarize(g, 0.02, Options{})
	b := Summarize(g, 0.02, Options{})
	if len(a.Selected) != len(b.Selected) {
		t.Fatal("nondeterministic selection size")
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("nondeterministic selection")
		}
	}
}

func TestSummarizeClustersPartitionBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := clusteredGraph(rng, 3, 4)
	res := Summarize(g, 0.02, Options{})
	var all []int
	for _, c := range res.Clusters {
		all = append(all, c...)
	}
	sort.Ints(all)
	if len(all) != g.N {
		t.Fatalf("clusters do not partition the batch: %v", res.Clusters)
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("clusters miss node %d", i)
		}
	}
}

func TestCoverageBoundedByN(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		g := randomGraph(rng, n)
		clusters := Components(g.Partition(0.3))
		// With λdiv = 0, F(S) is pure coverage: at most n (weights ≤ 1).
		o := NewObjective(g, clusters, 1, 0)
		perm := rng.Perm(n)
		if val := o.Value(perm); val > float64(n)+1e-9 {
			t.Fatalf("coverage %v exceeds n=%d", val, n)
		}
		// With λcov = 0, F(S) is pure diversity: at most #clusters.
		o = NewObjective(g, clusters, 0, 1)
		if val := o.Value(perm); val > float64(len(clusters))+1e-9 {
			t.Fatalf("diversity %v exceeds clusters=%d", val, len(clusters))
		}
	}
}

func TestGreedyPicksOnePerClusterFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := clusteredGraph(rng, 5, 4)
	o := NewObjective(g, Components(g.Partition(0.1)), 1, 1)
	sel := Greedy(o, 5)
	seen := map[int]bool{}
	for _, v := range sel {
		cluster := v / 4
		if seen[cluster] {
			t.Fatalf("greedy picked cluster %d twice before covering all: %v", cluster, sel)
		}
		seen[cluster] = true
	}
}

func TestSubmodularityOfWeightedSumsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	f := func(lc, ld uint8) bool {
		g := randomGraph(rng, 8)
		o := NewObjective(g, Components(g.Partition(0.4)), float64(lc)/64, float64(ld)/64)
		perm := rng.Perm(8)
		v := perm[0]
		b := perm[1:5]
		a := b[:2]
		gainA := o.Value(append(append([]int{}, a...), v)) - o.Value(a)
		gainB := o.Value(append(append([]int{}, b...), v)) - o.Value(b)
		return gainA >= gainB-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionLabelsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	g := randomGraph(rng, 15)
	labels := g.Partition(0.5)
	maxLabel := 0
	seen := map[int]bool{}
	for _, l := range labels {
		if l < 0 {
			t.Fatal("negative label")
		}
		seen[l] = true
		if l > maxLabel {
			maxLabel = l
		}
	}
	for l := 0; l <= maxLabel; l++ {
		if !seen[l] {
			t.Fatalf("label %d skipped; labels not dense", l)
		}
	}
}
