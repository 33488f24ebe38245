package par

import (
	"sync/atomic"
	"testing"
)

func TestDoCoversAll(t *testing.T) {
	hit := make([]int32, 100)
	Do(100, func(i int) { atomic.AddInt32(&hit[i], 1) })
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	Do(0, func(int) { t.Fatal("fn called for n=0") })
}
