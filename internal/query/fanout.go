package query

import (
	"context"
	"runtime"
	"sync"
)

// defaultFanOut is the worker-pool width used when Options.FanOut is unset.
// Member calls are dominated by IIOP round trips (I/O, not CPU), so the pool
// is wider than the core count.
func defaultFanOut() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// fanOut runs fn(0..n-1) on at most workers goroutines and returns when all
// calls have finished. Callers write results into index-addressed slices,
// which keeps result ordering deterministic regardless of completion order.
// workers <= 0 selects the default width; workers == 1 degenerates to a
// plain serial loop (the pre-parallel behaviour, kept for benchmarking).
func fanOut(n, workers int, fn func(int)) {
	fanOutCtx(context.Background(), n, workers, fn)
}

// fanOutCtx is fanOut under a caller context: once the context ends, no
// further indices are handed out — in-flight calls finish (they observe the
// same context through their own plumbing), but undispatched work is skipped.
// Callers detect skipped indices by their untouched result slots.
func fanOutCtx(ctx context.Context, n, workers int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = defaultFanOut()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}
