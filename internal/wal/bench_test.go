package wal

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the append hot path under both sync
// policies with a ~256 B record, the size of a typical upload-batch
// frame.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, pol := range []SyncPolicy{SyncNone, SyncEachRecord} {
		b.Run(pol.String(), func(b *testing.B) {
			l, err := Open(Config{Dir: b.TempDir(), Policy: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures replaying a populated log: the cost a
// crashed beesd pays at startup per record recovered.
func BenchmarkRecovery(b *testing.B) {
	for _, records := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			cfg := Config{Dir: b.TempDir(), Policy: SyncNone, SegmentBytes: 1 << 20}
			l, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 256)
			for i := 0; i < records; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := Replay(cfg, func([]byte) error { return nil })
				if err != nil || st.Records != records {
					b.Fatalf("replay: %d records, %v", st.Records, err)
				}
			}
		})
	}
}
