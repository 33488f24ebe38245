package submod

import (
	"math/rand"
	"testing"
)

func benchObjective(n int) *Objective {
	rng := rand.New(rand.NewSource(900))
	g := randomGraph(rng, n)
	return NewObjective(g, Components(g.Partition(0.3)), 1, 1)
}

func BenchmarkGreedyNaive100(b *testing.B) {
	o := benchObjective(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(o, 30)
	}
}

func BenchmarkGreedyLazy100(b *testing.B) {
	o := benchObjective(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LazyGreedy(o, 30)
	}
}

func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(901))
	g := randomGraph(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Partition(0.3)
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(902))
	g := clusteredGraph(rng, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(g, 0.02, Options{})
	}
}
