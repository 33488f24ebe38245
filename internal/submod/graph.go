// Package submod implements the similarity-aware submodular maximization
// model (SSMM) of the paper's Section III-B2: an image batch is a weighted
// graph whose edge weights are pairwise similarities; cutting edges below
// a threshold Tw partitions the graph, the number of components becomes
// the selection budget b, and a greedy maximizer of a monotone submodular
// coverage+diversity objective picks the b images that summarize the
// batch. Everything else in the batch is in-batch redundant.
package submod

import "fmt"

// Graph is a complete weighted similarity graph over n images. Weights
// are symmetric, in [0, 1], with W[i][i] = 1 (every image fully covers
// itself).
type Graph struct {
	N int
	W [][]float64
}

// NewGraph allocates an n-node graph with unit self-weights.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("submod: negative graph size %d", n))
	}
	g := &Graph{N: n, W: make([][]float64, n)}
	for i := range g.W {
		g.W[i] = make([]float64, n)
		g.W[i][i] = 1
	}
	return g
}

// SetWeight sets the symmetric edge weight between i and j, clamped to
// [0, 1]. Self-weights stay 1.
func (g *Graph) SetWeight(i, j int, w float64) {
	if i == j {
		return
	}
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	g.W[i][j] = w
	g.W[j][i] = w
}

// Partition cuts every edge with weight below tw and returns the
// connected-component label of each node (labels are 0-based and dense).
// The number of labels is SSMM's adaptive budget b.
func (g *Graph) Partition(tw float64) []int {
	labels := make([]int, g.N)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	stack := make([]int, 0, g.N)
	for s := 0; s < g.N; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < g.N; v++ {
				if labels[v] >= 0 || v == u {
					continue
				}
				if g.W[u][v] >= tw {
					labels[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return labels
}

// Components groups node indices by partition label.
func Components(labels []int) [][]int {
	if len(labels) == 0 {
		return nil
	}
	maxLabel := 0
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	comps := make([][]int, maxLabel+1)
	for i, l := range labels {
		comps[l] = append(comps[l], i)
	}
	return comps
}
