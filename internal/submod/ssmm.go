package submod

// SSMM front-end: the complete Algorithm 1 of the paper. Given the batch
// similarity graph and the energy-derived edge threshold Tw, it
// partitions the graph, takes the component count as the adaptive budget
// b, and greedily maximizes the coverage+diversity objective subject to
// |S| ≤ b.

// Options configures a summarization run. The zero value is BEES's.
type Options struct {
	// FixedBudget, when positive, overrides SSMM's adaptive budget —
	// this is the prior-work behaviour (user-assigned budget) kept for
	// the ablation comparison.
	FixedBudget int
}

// Result reports a summarization.
type Result struct {
	// Selected is the retained unique-image subset, in selection order.
	Selected []int
	// Gains holds the marginal gain F(S ∪ {v}) − F(S) each selected
	// element contributed at the moment greedy picked it, aligned with
	// Selected. Greedy picks highest-gain first, so Gains is
	// non-increasing — it is the per-image submodular utility consumers
	// like the upload outbox use to decide what to evict first.
	Gains []float64
	// Budget is the b that constrained the selection.
	Budget int
	// Clusters is the threshold partition of the batch.
	Clusters [][]int
	// Objective is F(Selected).
	Objective float64
}

// Summarize runs SSMM on the batch graph with edge threshold tw.
func Summarize(g *Graph, tw float64, opts Options) Result {
	if g.N == 0 {
		return Result{}
	}
	labels := g.Partition(tw)
	clusters := Components(labels)
	budget := len(clusters)
	if opts.FixedBudget > 0 {
		budget = opts.FixedBudget
	}
	// Unit weights: the paper weighs coverage and diversity equally.
	obj := NewObjective(g, clusters, 1, 1)
	selected := LazyGreedy(obj, budget)
	// Replay the selection to recover each element's marginal gain at
	// pick time (O(b·n), cheap next to the selection itself). The sum of
	// gains telescopes to F(Selected).
	gains := make([]float64, len(selected))
	st := NewState(obj)
	for i, v := range selected {
		gains[i] = st.Gain(v)
		st.Add(v)
	}
	return Result{
		Selected:  selected,
		Gains:     gains,
		Budget:    budget,
		Clusters:  clusters,
		Objective: obj.Value(selected),
	}
}
