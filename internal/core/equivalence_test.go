package core

import (
	"reflect"
	"testing"

	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/server"
)

// perImage is the test oracle for the batched API: it adapts a server
// to ServerAPI by looping, one query and one upload call per image. Each
// image commits on its own, so the chunk's nonce cannot cover them and
// every image goes up under nonce 0.
type perImage struct{ srv *server.Server }

func (p perImage) QueryMaxBatch(sets []*features.BinarySet) []float64 {
	sims := make([]float64, len(sets))
	for i, s := range sets {
		sims[i] = p.srv.QueryMaxBatch([]*features.BinarySet{s})[0]
	}
	return sims
}

func (p perImage) NewUploadNonce() uint64 { return p.srv.NewUploadNonce() }

func (p perImage) UploadItems(_ uint64, items []server.UploadItem) ([]int64, error) {
	ids := make([]int64, 0, len(items))
	for _, it := range items {
		id, err := p.srv.UploadItems(0, []server.UploadItem{it})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id...)
	}
	return ids, nil
}

// TestBatchedMatchesPerImage pins the API-redesign contract: the batched
// server path must produce byte-identical BatchReports to the legacy
// one-call-per-image path (the perImage oracle) for every scheme. The
// batching changes how many calls cross the server boundary, never what
// a batch costs or eliminates.
func TestBatchedMatchesPerImage(t *testing.T) {
	schemes := map[string]func() Scheme{
		"bees": func() Scheme { return New(DefaultConfig()) },
		"bees-ea": func() Scheme {
			cfg := DefaultConfig()
			cfg.Adaptive = false
			return New(cfg)
		},
		"window1": func() Scheme {
			cfg := DefaultConfig()
			cfg.UploadWindow = 1
			return New(cfg)
		},
	}
	for name, mk := range schemes {
		t.Run(name, func(t *testing.T) {
			run := func(wrap func(*server.Server) ServerAPI) (BatchReport, server.Stats) {
				srv := server.NewDefault()
				d := dataset.NewDisasterBatch(31, 18, 4, 0.5)
				seedServer(srv, d)
				dev := NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
				dev.Battery.SetEbat(0.7)
				r := mk().ProcessBatch(dev, wrap(srv), d.Batch)
				return r, srv.Stats()
			}
			batched, bst := run(func(s *server.Server) ServerAPI { return s })
			legacy, lst := run(func(s *server.Server) ServerAPI { return perImage{srv: s} })
			if !reflect.DeepEqual(batched, legacy) {
				t.Errorf("reports diverge:\nbatched: %+v\nlegacy:  %+v", batched, legacy)
			}
			if bst != lst {
				t.Errorf("server stats diverge: batched %+v, legacy %+v", bst, lst)
			}
			if batched.Uploaded == 0 || batched.CrossEliminated == 0 {
				t.Fatalf("degenerate run proves nothing: %+v", batched)
			}
		})
	}
}
