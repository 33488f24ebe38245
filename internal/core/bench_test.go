package core

import (
	"testing"

	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/par"
	"bees/internal/server"
	"bees/internal/submod"
)

// BenchmarkPipelineProcessBatch measures one full AFE → ARD → AIU pass
// over a 16-image batch against an in-process server. The server is
// rebuilt outside the timer each iteration (from pre-extracted seed
// sets) so every measured pass sees the same index state.
func BenchmarkPipelineProcessBatch(b *testing.B) {
	d := dataset.NewDisasterBatch(55, 16, 4, 0.5)
	cfg := features.DefaultConfig()
	twinSets := make([]*features.BinarySet, len(d.ServerTwins))
	for i, tw := range d.ServerTwins {
		twinSets[i] = features.ExtractORB(tw.Render(), cfg)
		tw.Free()
	}
	p := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := server.NewDefault()
		for j, set := range twinSets {
			srv.SeedIndex(set, server.UploadMeta{GroupID: d.ServerTwins[j].GroupID})
		}
		dev := NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
		dev.Battery.SetEbat(0.7)
		b.StartTimer()
		p.ProcessBatch(dev, srv, d.Batch)
	}
}

// BenchmarkExtractAll measures the host-parallel AFE stage alone.
func BenchmarkExtractAll(b *testing.B) {
	d := dataset.NewDisasterBatch(56, 16, 4, 0)
	cfg := features.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractAll(d.Batch, 0.1, cfg)
	}
}

// benchGraphInputs extracts a paper-scale batch — 64 rendered disaster
// images with a realistic duplicate fraction — so the graph benchmarks
// measure the matcher on the descriptor statistics the pipeline actually
// produces (extraction itself stays outside the timer).
func benchGraphInputs(b *testing.B) ([]*features.BinarySet, []int) {
	b.Helper()
	d := dataset.NewDisasterBatch(57, 64, 16, 0.5)
	sets := ExtractAll(d.Batch, 0.1, features.DefaultConfig())
	for _, img := range d.Batch {
		img.Free()
	}
	survivors := make([]int, len(sets))
	for i := range survivors {
		survivors[i] = i
	}
	return sets, survivors
}

// BenchmarkBuildBatchGraph measures the IBRD similarity graph over a
// 64-image batch on the prepared kernel; BenchmarkBuildBatchGraphRef is
// the brute-force baseline kept alongside so `make benchdiff` tracks the
// speedup (×3 or better expected).
func BenchmarkBuildBatchGraph(b *testing.B) {
	sets, survivors := benchGraphInputs(b)
	cap, radius := DefaultConfig().GraphDescriptors, features.DefaultHammingMax
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildBatchGraph(sets, survivors, cap, radius)
	}
}

func BenchmarkBuildBatchGraphRef(b *testing.B) {
	sets, survivors := benchGraphInputs(b)
	cap, radius := DefaultConfig().GraphDescriptors, features.DefaultHammingMax
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBatchGraphBrute(sets, survivors, cap, radius)
	}
}

// buildBatchGraphBrute is the pre-kernel BuildBatchGraph: same paired-row
// host parallelism, brute-force matcher. Keeping it parallel makes the
// Ref/fast benchmark ratio a pure kernel comparison.
func buildBatchGraphBrute(sets []*features.BinarySet, survivors []int, capN, hammingMax int) *submod.Graph {
	g := submod.NewGraph(len(survivors))
	capped := make([]*features.BinarySet, len(survivors))
	for i, si := range survivors {
		capped[i] = capSet(sets[si], capN)
	}
	n := len(survivors)
	row := func(a int) {
		for b := a + 1; b < n; b++ {
			g.SetWeight(a, b, jaccardRef(capped[a], capped[b], hammingMax))
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
