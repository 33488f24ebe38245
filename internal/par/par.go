// Package par provides the host-parallel index loop shared by the
// compute-bound layers (core's extraction/compression, the index's batch
// insert and batched queries, the server's batched CBRD). It lives below
// all of them so none has to import another just to parallelize a loop.
package par

import (
	"runtime"
	"sync"
)

// Do runs fn(0..n-1) across all host cores. fn must be safe to run
// concurrently for distinct indices; results are deterministic as long
// as fn(i) writes only its own slot. The degenerate cases (n <= 1, one
// core) run inline with no goroutines.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
