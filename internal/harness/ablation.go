package harness

import (
	"math/rand"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/submod"
)

// Ablation runners exercise the design choices DESIGN.md calls out:
// SSMM's adaptive budget vs the prior-work fixed budget, the lazy greedy
// maximizer vs naive greedy vs brute force, and the LSH index vs an
// exhaustive scan.

// AblationBudgetRow compares selection quality for one batch composition.
type AblationBudgetRow struct {
	Batch       int
	TrueUnique  int
	AdaptiveSel int // images kept by SSMM's partition-derived budget
	FixedSel    int // images kept by a fixed budget (prior work)
	FixedBudget int
}

// RunAblationBudget builds batches with different duplicate fractions and
// compares SSMM's adaptive budget against a fixed budget of 9 (the
// paper's Facebook-album example).
func RunAblationBudget(seed int64, batchSize int, dupCounts []int) []AblationBudgetRow {
	const fixedBudget = 9
	rows := make([]AblationBudgetRow, 0, len(dupCounts))
	for i, dups := range dupCounts {
		d := dataset.NewDisasterBatch(seed+int64(i), batchSize, dups, 0)
		cfg := features.DefaultConfig()
		sets := make([]*features.PreparedBinarySet, len(d.Batch))
		for j, img := range d.Batch {
			sets[j] = features.ExtractORB(img.Render(), cfg).Prepare()
			img.Free()
		}
		g := submod.NewGraph(len(sets))
		for a := 0; a < len(sets); a++ {
			for b := a + 1; b < len(sets); b++ {
				g.SetWeight(a, b, features.JaccardPrepared(sets[a], sets[b], features.DefaultHammingMax))
			}
		}
		adaptive := submod.Summarize(g, 0.019, submod.Options{})
		fixed := submod.Summarize(g, 0.019, submod.Options{FixedBudget: fixedBudget})
		rows = append(rows, AblationBudgetRow{
			Batch:       batchSize,
			TrueUnique:  batchSize - dups,
			AdaptiveSel: len(adaptive.Selected),
			FixedSel:    len(fixed.Selected),
			FixedBudget: fixedBudget,
		})
	}
	return rows
}

// AblationBudgetTable renders the budget comparison.
func AblationBudgetTable(rows []AblationBudgetRow) *Table {
	t := &Table{
		Title:  "Ablation — SSMM adaptive budget vs fixed budget",
		Header: []string{"batch", "true unique", "adaptive keeps", "fixed keeps", "fixed budget"},
		Notes: []string{
			"the adaptive budget tracks the true unique count; a fixed budget over- or under-selects",
		},
	}
	for _, r := range rows {
		t.Add(r.Batch, r.TrueUnique, r.AdaptiveSel, r.FixedSel, r.FixedBudget)
	}
	return t
}

// AblationGreedyRow compares maximizers on one random instance class.
type AblationGreedyRow struct {
	Nodes        int
	Budget       int
	GreedyRatio  float64 // greedy objective / brute-force optimum
	LazyMatches  bool    // lazy greedy selects exactly the naive set
	GuaranteeMet bool    // ratio ≥ 1 − 1/e
}

// RunAblationGreedy validates greedy quality against brute force on
// exhaustively solvable instances.
func RunAblationGreedy(seed int64, trials int) []AblationGreedyRow {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]AblationGreedyRow, 0, trials)
	for i := 0; i < trials; i++ {
		n := 8 + rng.Intn(5)
		g := submod.NewGraph(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					g.SetWeight(a, b, rng.Float64())
				}
			}
		}
		clusters := submod.Components(g.Partition(0.3))
		obj := submod.NewObjective(g, clusters, 1, 1)
		budget := 2 + rng.Intn(3)
		naive := submod.Greedy(obj, budget)
		lazy := submod.LazyGreedy(obj, budget)
		_, opt := submod.BruteForce(obj, budget)
		ratio := 1.0
		if opt > 0 {
			ratio = obj.Value(naive) / opt
		}
		lazyMatches := len(naive) == len(lazy)
		if lazyMatches {
			for j := range naive {
				if naive[j] != lazy[j] {
					lazyMatches = false
					break
				}
			}
		}
		rows = append(rows, AblationGreedyRow{
			Nodes:        n,
			Budget:       budget,
			GreedyRatio:  ratio,
			LazyMatches:  lazyMatches,
			GuaranteeMet: ratio >= 1-1/2.718281828459045,
		})
	}
	return rows
}

// AblationGreedyTable renders the maximizer comparison.
func AblationGreedyTable(rows []AblationGreedyRow) *Table {
	t := &Table{
		Title:  "Ablation — greedy vs lazy greedy vs brute force",
		Header: []string{"nodes", "budget", "greedy/optimal", "lazy == naive", "(1-1/e) met"},
	}
	for _, r := range rows {
		t.Add(r.Nodes, r.Budget, r.GreedyRatio, r.LazyMatches, r.GuaranteeMet)
	}
	return t
}

// AblationIndexRow compares LSH retrieval against exhaustive scan.
type AblationIndexRow struct {
	Corpus    int
	Queries   int
	Agreement float64 // fraction of queries where LSH top-1 == exhaustive top-1
}

// RunAblationIndex measures LSH/exhaustive agreement on a Kentucky corpus.
func RunAblationIndex(seed int64, groups, queries int) AblationIndexRow {
	set := dataset.NewKentucky(seed, groups)
	cfg := features.DefaultConfig()
	idx := index.New(index.DefaultConfig())
	for i, img := range set.Images {
		idx.Add(&index.Entry{
			ID:      index.ImageID(i),
			Set:     features.ExtractORB(img.Render(), cfg),
			GroupID: img.GroupID,
		})
		img.Free()
	}
	agree := 0
	for q := 0; q < queries && q < groups; q++ {
		img := set.Group(q)[1]
		qset := features.ExtractORB(img.Render(), cfg)
		img.Free()
		eLSH, _ := idx.QueryMax(qset)
		eExh, _ := idx.ExhaustiveMax(qset)
		if eLSH != nil && eExh != nil && eLSH.ID == eExh.ID {
			agree++
		}
	}
	return AblationIndexRow{
		Corpus:    len(set.Images),
		Queries:   queries,
		Agreement: float64(agree) / float64(queries),
	}
}

// AblationIndexTable renders the index comparison.
func AblationIndexTable(r AblationIndexRow) *Table {
	t := &Table{
		Title:  "Ablation — LSH index vs exhaustive scan",
		Header: []string{"corpus images", "queries", "top-1 agreement"},
		Notes:  []string{"the LSH path must find the same best match at a fraction of the cost"},
	}
	t.Add(r.Corpus, r.Queries, pct(r.Agreement))
	return t
}
