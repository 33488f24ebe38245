package server

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bees/internal/blockstore"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite the checked-in FuzzLoadSnapshot seed corpus")

// corpusSnapshots returns valid snapshot streams covering the format's
// shapes: empty server, seeded index, uploads with metadata, and the
// hand-crafted zero-counter/populated-index case.
func corpusSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	save := func(build func(s *Server)) []byte {
		srv := NewDefault()
		build(srv)
		var buf bytes.Buffer
		if err := srv.SaveSnapshot(&buf); err != nil {
			tb.Fatalf("corpus save: %v", err)
		}
		return buf.Bytes()
	}
	_, sets := batchSets(tb, 320, 4)
	return [][]byte{
		save(func(s *Server) {}),
		save(func(s *Server) { s.SeedIndex(sets[0], UploadMeta{GroupID: 1, Lat: 9, Lon: -9}) }),
		save(func(s *Server) {
			for i, set := range sets {
				upload(tb, s, set, UploadMeta{GroupID: int64(i), Bytes: 50 * i, Lat: float64(i)})
			}
		}),
		// v2 block section: one staged (refs=0) and one committed block.
		save(func(s *Server) {
			blob := blockstore.SynthPayload(320, 600)
			m := blockstore.ManifestOf(blob, 256)
			for i, b := range blockstore.Split(blob, 256) {
				if _, err := s.Blocks().Put(m.Hashes[i], b); err != nil {
					tb.Fatal(err)
				}
			}
			staged := blockstore.SynthPayload(321, 100)
			if _, err := s.Blocks().Put(blockstore.HashBlock(staged), staged); err != nil {
				tb.Fatal(err)
			}
			if _, err := s.CommitManifestsNonce(0, []ManifestUpload{{
				Set:      sets[1],
				Meta:     UploadMeta{GroupID: 2, Bytes: int(m.TotalBytes)},
				Manifest: m,
			}}); err != nil {
				tb.Fatal(err)
			}
		}),
	}
}

func corpusDir() string {
	return filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot")
}

// TestSnapshotFuzzCorpus maintains the checked-in seed corpus in Go's
// native fuzz-corpus format, so `go test` replays the seeds as
// regression inputs even without -fuzz. Regenerate after a format
// change with:
//
//	go test ./internal/server -run TestSnapshotFuzzCorpus -update-fuzz-corpus
func TestSnapshotFuzzCorpus(t *testing.T) {
	snaps := corpusSnapshots(t)
	if *updateFuzzCorpus {
		if err := os.MkdirAll(corpusDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		for i, snap := range snaps {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(snap)))
			path := filepath.Join(corpusDir(), fmt.Sprintf("seed-valid-%d", i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(corpusDir())
	if err != nil || len(entries) == 0 {
		t.Fatalf("missing seed corpus (run with -update-fuzz-corpus): %v", err)
	}
	// Every checked-in valid seed must still load cleanly; a format
	// change that orphans the corpus should fail here, loudly.
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, ok := bytes.Cut(data, []byte("[]byte("))
		if !ok {
			t.Fatalf("%s: not in go fuzz corpus format", e.Name())
		}
		quoted = bytes.TrimRight(bytes.TrimSpace(quoted), ")")
		raw, err := strconv.Unquote(string(quoted))
		if err != nil {
			t.Fatalf("%s: bad corpus quoting: %v", e.Name(), err)
		}
		srv := NewDefault()
		if err := srv.LoadSnapshot(bytes.NewReader([]byte(raw))); err != nil {
			t.Errorf("%s: checked-in valid snapshot no longer loads: %v", e.Name(), err)
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary byte streams to the snapshot loader.
// The invariants: never panic, never over-allocate on a hostile length
// field, fail only with errBadSnapshot, and anything accepted must
// re-save cleanly.
func FuzzLoadSnapshot(f *testing.F) {
	for _, snap := range corpusSnapshots(f) {
		f.Add(snap)
		// Truncations of a valid stream probe every mid-field EOF.
		f.Add(snap[:len(snap)/2])
	}
	f.Add([]byte("BEES"))
	// Valid header announcing 2^64-1 index entries.
	f.Add(append([]byte("BEES"),
		2, 0, 0, 0, 0, 0, 0, 0, // version
		0, 0, 0, 0, 0, 0, 0, 0, // received
		0, 0, 0, 0, 0, 0, 0, 0, // nextID
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // count
	))
	// Valid empty v2 stream announcing 2^64-1 blocks.
	f.Add(append([]byte("BEES"),
		2, 0, 0, 0, 0, 0, 0, 0, // version
		0, 0, 0, 0, 0, 0, 0, 0, // received
		0, 0, 0, 0, 0, 0, 0, 0, // nextID
		0, 0, 0, 0, 0, 0, 0, 0, // count
		0, 0, 0, 0, 0, 0, 0, 0, // uploads
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // blocks
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewDefault()
		err := srv.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, errBadSnapshot) {
				t.Fatalf("non-errBadSnapshot failure: %v", err)
			}
			return
		}
		if err := srv.SaveSnapshot(io.Discard); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
	})
}
