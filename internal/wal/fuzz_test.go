package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to Replay as a segment file:
// whatever the disk holds, recovery either replays a clean prefix or
// truncates — it never panics and never yields a record that fails its
// own checksum.
func FuzzWALReplay(f *testing.F) {
	// A well-formed segment with two records.
	valid := func() []byte {
		var b []byte
		b = append(b, segMagic[:]...)
		b = binary.LittleEndian.AppendUint32(b, segVersion)
		b = binary.LittleEndian.AppendUint64(b, 1)
		for _, p := range [][]byte{[]byte("first"), []byte("second-record")} {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
			b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crcTable))
			b = append(b, p...)
		}
		return b
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])    // torn tail
	f.Add(valid[:segHeaderSize])   // empty segment
	f.Add(valid[:segHeaderSize-2]) // torn header
	f.Add([]byte{})                // empty file
	f.Add([]byte("not a wal segment at all, just prose"))
	corrupt := append([]byte(nil), valid...)
	corrupt[segHeaderSize+frameHeaderSize] ^= 0x01
	f.Add(corrupt) // payload bit flip

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		st, err := Replay(Config{Dir: dir}, func(p []byte) error {
			n++
			if len(p) == 0 || len(p) > MaxRecordBytes {
				t.Fatalf("replayed invalid-length record: %d bytes", len(p))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Replay over fuzzed bytes errored: %v", err)
		}
		if st.Records != n {
			t.Fatalf("stats report %d records, callback saw %d", st.Records, n)
		}
		if st.TruncatedBytes < 0 || st.TruncatedBytes > int64(len(data)) {
			t.Fatalf("TruncatedBytes %d out of range for %d input bytes", st.TruncatedBytes, len(data))
		}
		// A log reopened over the fuzzed directory must stay usable.
		l, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open over fuzzed dir: %v", err)
		}
		if err := l.Append([]byte("post-fuzz")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := Replay(Config{Dir: dir}, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st2.Records < n {
			t.Fatalf("records lost after reopen: %d -> %d", n, st2.Records)
		}
	})
}

// seedCorpus materializes the checked-in corpus under testdata so the
// interesting shapes survive without a live fuzz run.
func TestFuzzCorpusPresent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("checked-in fuzz corpus missing: %v (%d entries)", err, len(ents))
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("empty corpus file %s", e.Name())
		}
	}
}
