package core

import (
	"sync"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/imagelib"
	"bees/internal/par"
	"bees/internal/submod"
)

// ExtractAll extracts ORB features for a batch concurrently. Results are
// deterministic (extraction is a pure per-image function; order is
// preserved by index). Energy and delay accounting stay with the caller:
// the phone's cost model is per-image regardless of host parallelism.
// Extraction buffers (pyramid rasters, integrals, FAST score rows) come
// from a pooled per-goroutine arena, so steady-state batches allocate
// only the descriptor sets themselves.
func ExtractAll(batch []*dataset.Image, bitmapC float64, cfg features.Config) []*features.BinarySet {
	sets := make([]*features.BinarySet, len(batch))
	par.Do(len(batch), func(i int) {
		sets[i] = extractOne(batch[i], bitmapC, cfg)
	})
	return sets
}

// extractScratch bundles the two arenas one extraction needs: the AFE
// bitmap-compression scratch and the ORB extraction scratch. Pooled so
// concurrent ExtractAll workers each reuse one across images.
type extractScratch struct {
	bmp  imagelib.Scratch
	feat *features.ExtractScratch
}

var extractScratchPool = sync.Pool{
	New: func() any { return &extractScratch{feat: features.NewExtractScratch()} },
}

func extractOne(img *dataset.Image, bitmapC float64, cfg features.Config) *features.BinarySet {
	es := extractScratchPool.Get().(*extractScratch)
	defer extractScratchPool.Put(es)
	bitmap := es.bmp.CompressBitmap(img.Render(), bitmapC)
	return features.ExtractORBScratch(bitmap, cfg, es.feat)
}

// BuildBatchGraph computes the pairwise similarity graph over the
// survivors' capped descriptor sets, parallelized by row. The public
// album summarizer (bees.SummarizeBatch) builds on it too, so IBRD and
// the standalone summarizer stay consistent as knobs change.
func BuildBatchGraph(sets []*features.BinarySet, survivors []int, cap, hammingMax int) *submod.Graph {
	g := submod.NewGraph(len(survivors))
	// Cap and prepare each set once (in parallel); the O(n²) cell loop then
	// reuses it across all n-1 comparisons each set participates in.
	capped := make([]*features.PreparedBinarySet, len(survivors))
	par.Do(len(survivors), func(i int) {
		capped[i] = capSet(sets[survivors[i]], cap).Prepare()
	})
	// Row a has n-1-a cells, so handing out single rows leaves the worker
	// stuck with the early rows doing almost all the work. Pair row a with
	// row n-1-a instead: every unit costs (n-1-a) + a = n-1 cells, and
	// par.Do hands units to whichever worker is free.
	n := len(survivors)
	row := func(a int) {
		for b := a + 1; b < n; b++ {
			// Each (a, b) cell is written by exactly one goroutine;
			// SetWeight touches only W[a][b]/W[b][a].
			g.SetWeight(a, b, features.JaccardPrepared(capped[a], capped[b], hammingMax))
		}
	}
	par.Do((n+1)/2, func(u int) {
		row(u)
		if mirror := n - 1 - u; mirror != u {
			row(mirror)
		}
	})
	return g
}
