package main

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"

	"bees/internal/client"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/features"
	"bees/internal/server"
)

const (
	frameSets   = 8  // sets per query frame
	chunkImages = 8  // images per upload chunk
	batchImages = 16 // images per device batch
)

// sizes are the fixed op counts of one round. A round replays the same
// seeded op stream against a freshly booted stack, so the index size,
// bytes, block counts and IDs every op meets are the same in every
// round and every run; only the number of rounds follows --seconds.
type sizes struct {
	DeviceBatches int // batches per round
	QueryIndex    int // warm index of query_heavy
	QueryPool     int // distinct query sets (half re-shoots of indexed scenes, half novel)
	QueryFrames   int // frames per client per round
	IngestChunks  int // chunks per client per round
	MixedIndex    int
	MixedPool     int
	MixedSteps    int
	ClusterWarm   int
	ClusterPool   int
	ClusterIters  int
	MinRounds     int
}

// fullSizes are calibrated so that a round takes 0.5–2 s on the 2-core
// reference box and setup stays under 5 s (extraction, at ~5 ms per
// image on two cores, is most of it).
var fullSizes = sizes{
	DeviceBatches: 12,
	QueryIndex:    384, QueryPool: 128, QueryFrames: 24,
	IngestChunks: 24,
	MixedIndex:   256, MixedPool: 64, MixedSteps: 16,
	ClusterWarm: 128, ClusterPool: 48, ClusterIters: 12,
	MinRounds: 3,
}

// toySizes keep bench_test.go to a few seconds.
var toySizes = sizes{
	DeviceBatches: 2,
	QueryIndex:    24, QueryPool: 16, QueryFrames: 3,
	IngestChunks: 4,
	MixedIndex:   24, MixedPool: 16, MixedSteps: 3,
	ClusterWarm: 16, ClusterPool: 16, ClusterIters: 2,
	MinRounds: 2,
}

// scenes draws images from one dataset builder, deterministically from
// the seed.
type scenes struct {
	b   *dataset.Builder
	rng *rand.Rand
}

func newScenes(seed int64) *scenes {
	// 4000 motifs, as dataset.NewDisasterBatch uses: unrelated scenes
	// stay near zero similarity.
	return &scenes{b: dataset.NewBuilder(seed, 4000), rng: rand.New(rand.NewSource(seed + 7))}
}

func (s *scenes) geotag(im *dataset.Image) *dataset.Image {
	im.Lat = dataset.ParisLatMin + s.rng.Float64()*(dataset.ParisLatMax-dataset.ParisLatMin)
	im.Lon = dataset.ParisLonMin + s.rng.Float64()*(dataset.ParisLonMax-dataset.ParisLonMin)
	return im
}

// novel returns n canonical images of n new scenes.
func (s *scenes) novel(n int) []*dataset.Image {
	out := make([]*dataset.Image, n)
	for i := range out {
		out[i] = s.geotag(s.b.Image(s.b.NewScene(), dataset.KindCanonical))
	}
	return out
}

// reshoots returns n images of scenes already in of: alternately a
// near-duplicate and a typical same-scene re-shoot.
func (s *scenes) reshoots(of []*dataset.Image, n int) []*dataset.Image {
	out := make([]*dataset.Image, n)
	for i := range out {
		kind := dataset.KindNearDup
		if i%2 == 1 {
			kind = dataset.KindRandom
		}
		out[i] = s.geotag(s.b.Image(of[s.rng.Intn(len(of))].GroupID, kind))
	}
	return out
}

// blobSizes returns n upload sizes: the n equally likely quantiles of a
// lognormal (median 96 KiB, clipped to 16–384 KiB, so a manifest spans
// 1–3 blocks of 128 KiB), in seeded order. Taking quantiles rather than
// draws keeps the bytes a round offers the same for every seed — only
// which image gets which size changes — so that wire_bytes_per_item and
// the latencies that follow it compare across seeds.
func (s *scenes) blobSizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		v := 96 * 1024 * math.Exp(0.6*z)
		out[i] = int(math.Max(16*1024, math.Min(384*1024, v)))
	}
	s.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// extract renders and extracts the images on all cores, as the device
// would at full battery, and drops the rasters again.
func extract(imgs []*dataset.Image) []*features.BinarySet {
	sets := core.ExtractAll(imgs, 0, core.DefaultConfig().Extraction)
	for _, im := range imgs {
		im.Free()
	}
	return sets
}

// uploadItems pairs images with their sets and a blob size.
func (s *scenes) uploadItems(imgs []*dataset.Image, sets []*features.BinarySet) []server.UploadItem {
	items := make([]server.UploadItem, len(imgs))
	sizes := s.blobSizes(len(imgs))
	for i, im := range imgs {
		items[i] = server.UploadItem{Set: sets[i], Meta: server.UploadMeta{
			GroupID: im.GroupID, Lat: im.Lat, Lon: im.Lon, Bytes: sizes[i],
		}}
	}
	return items
}

func seedMeta(im *dataset.Image) server.UploadMeta {
	return server.UploadMeta{GroupID: im.GroupID, Lat: im.Lat, Lon: im.Lon}
}

// frames draws n query frames of k pool indices each.
func (s *scenes) frames(n, k, pool int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, k)
		for j := range out[i] {
			out[i][j] = s.rng.Intn(pool)
		}
	}
	return out
}

func pick(pool []*features.BinarySet, idx []int) []*features.BinarySet {
	out := make([]*features.BinarySet, len(idx))
	for i, k := range idx {
		out[i] = pool[k]
	}
	return out
}

func chunked(items []server.UploadItem, n int) [][]server.UploadItem {
	var out [][]server.UploadItem
	for len(items) > 0 {
		k := n
		if k > len(items) {
			k = len(items)
		}
		out = append(out, items[:k])
		items = items[k:]
	}
	return out
}

// The op-stream fingerprint: a workload writes every op it will issue,
// in order, so that the same seed can be shown to give the same stream.

func hashU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func hashSets(w io.Writer, sets []*features.BinarySet) {
	for _, s := range sets {
		hashU64(w, uint64(s.Len()))
		for _, d := range s.Descriptors {
			for _, word := range d {
				hashU64(w, word)
			}
		}
	}
}

func hashItems(w io.Writer, items []server.UploadItem) {
	for i := range items {
		hashU64(w, client.ItemKey(&items[i]))
	}
}
