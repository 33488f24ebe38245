package server

import (
	"sync"
	"testing"

	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/index"
)

func batchSets(t testing.TB, seed int64, n int) (*dataset.DisasterBatch, []*features.BinarySet) {
	t.Helper()
	d := dataset.NewDisasterBatch(seed, n, 0, 0)
	cfg := features.DefaultConfig()
	sets := make([]*features.BinarySet, n)
	for i, img := range d.Batch {
		sets[i] = features.ExtractORB(img.Render(), cfg)
		img.Free()
	}
	return d, sets
}

// upload stores one image the way a device's single upload does: one
// item under nonce 0.
func upload(t testing.TB, s *Server, set *features.BinarySet, meta UploadMeta) index.ImageID {
	t.Helper()
	ids, err := s.UploadItems(0, []UploadItem{{Set: set, Meta: meta}})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	return index.ImageID(ids[0])
}

// queryMax answers the CBRD query for one set.
func queryMax(s *Server, set *features.BinarySet) float64 {
	return s.QueryMaxBatch([]*features.BinarySet{set})[0]
}

// Uploads returns the IDs of images received through an upload (not
// seeds), in arrival order.
func (s *Server) Uploads() []index.ImageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]index.ImageID(nil), s.uploads...)
}

func TestEmptyServerQuery(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 300, 1)
	if sim := queryMax(srv, sets[0]); sim != 0 {
		t.Fatalf("empty server QueryMax = %v", sim)
	}
	if st := srv.Stats(); st.Images != 0 || st.BytesReceived != 0 {
		t.Fatalf("empty server stats: %+v", st)
	}
}

func TestUploadThenQuery(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 301, 3)
	id := upload(t, srv, sets[0], UploadMeta{GroupID: 7, Bytes: 1000, Lat: 1, Lon: 2})
	if sim := queryMax(srv, sets[0]); sim < 0.9 {
		t.Fatalf("self-query after upload = %v, want ~1", sim)
	}
	e := srv.idx.Get(id)
	if e == nil || e.GroupID != 7 || e.Lat != 1 || e.Lon != 2 {
		t.Fatalf("stored entry wrong: %+v", e)
	}
	st := srv.Stats()
	if st.Images != 1 || st.BytesReceived != 1000 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUploadNilSetNotIndexed(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 302, 1)
	upload(t, srv, nil, UploadMeta{GroupID: 1, Bytes: 500, Lat: 3, Lon: 4})
	if sim := queryMax(srv, sets[0]); sim != 0 {
		t.Fatal("nil-set upload should not be queryable")
	}
	st := srv.Stats()
	if st.Images != 1 || st.BytesReceived != 500 {
		t.Fatalf("nil-set upload not counted: %+v", st)
	}
	metas := srv.UploadedMetas()
	if len(metas) != 1 || metas[0].Lat != 3 {
		t.Fatalf("metas: %+v", metas)
	}
}

func TestSeedIndexNotCounted(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 303, 1)
	srv.SeedIndex(sets[0], UploadMeta{GroupID: 9})
	if st := srv.Stats(); st.Images != 0 || st.BytesReceived != 0 {
		t.Fatalf("seeded index counted as upload: %+v", st)
	}
	if sim := queryMax(srv, sets[0]); sim < 0.9 {
		t.Fatal("seeded features must be queryable")
	}
	if len(srv.Uploads()) != 0 {
		t.Fatal("seed must not appear in uploads")
	}
}

func TestQueryTopK(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 304, 5)
	for i, s := range sets {
		upload(t, srv, s, UploadMeta{GroupID: int64(i), Bytes: 1})
	}
	res := srv.QueryTopK(sets[2], 3)
	if len(res) == 0 || res[0].GroupID != 2 {
		t.Fatalf("TopK results wrong: %+v", res)
	}
}

func TestUploadsOrder(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 305, 3)
	var ids []int64
	for i, s := range sets {
		ids = append(ids, int64(upload(t, srv, s, UploadMeta{GroupID: int64(i)})))
	}
	ups := srv.Uploads()
	if len(ups) != 3 {
		t.Fatalf("uploads: %v", ups)
	}
	for i := range ups {
		if int64(ups[i]) != ids[i] {
			t.Fatal("upload order not preserved")
		}
	}
}

func TestConcurrentUploads(t *testing.T) {
	srv := NewDefault()
	_, sets := batchSets(t, 306, 8)
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.UploadItems(0, []UploadItem{{Set: sets[i], Meta: UploadMeta{GroupID: int64(i), Bytes: 10}}}); err != nil {
				t.Error(err)
			}
			queryMax(srv, sets[i])
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Images != 8 || st.BytesReceived != 80 {
		t.Fatalf("concurrent uploads lost: %+v", st)
	}
	// IDs must be unique.
	seen := map[int64]bool{}
	for _, id := range srv.Uploads() {
		if seen[int64(id)] {
			t.Fatal("duplicate image ID")
		}
		seen[int64(id)] = true
	}
}

func TestUploadedMetasCopied(t *testing.T) {
	srv := NewDefault()
	upload(t, srv, nil, UploadMeta{Bytes: 1})
	m := srv.UploadedMetas()
	m[0].Bytes = 999
	if srv.UploadedMetas()[0].Bytes != 1 {
		t.Fatal("UploadedMetas must return a copy")
	}
}
