package nn

import (
	"runtime"
	"sync"
)

// Parallelism reports how many goroutines one inference operation runs on:
// always 1. Inference ops run on their caller's goroutine, so the only
// concurrency in serving is the Engine's worker pool. The function stays
// because the EL-service benchmark (bench/main.go), whose sources change
// only in a benchmark change, records it as nn_parallelism in every run's
// machine record; returning 1 keeps that record what every run in its
// ledger already says.
func Parallelism() int { return 1 }

// parallelFor runs fn(i) for i in [0, n) across up to GOMAXPROCS
// goroutines. Only training code (backward passes, BatchNorm's training
// forward, the loss gradient) calls it. Work items must write to disjoint
// memory. Small loops run inline to avoid goroutine overhead.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 4 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
