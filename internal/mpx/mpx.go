// Package mpx is the shared-memory substitute for the paper's MPI dynamic
// process management (Section 4). The original GPTune driver runs as a
// single MPI process that spawns worker process groups via MPI_Comm_spawn;
// here the workers are goroutines drawn from the pools below, which the
// tuner uses to parallelize objective-function evaluations (MapStream),
// modeling-phase random starts and per-task search (ParallelFor), and the
// deterministic chunked reductions of the modeling phase (ParallelChunks)
// (Sections 4.2–4.3). Gate bounds concurrent modeling phases across a
// service's studies, and Go runs a supervised background task.
package mpx

import (
	"runtime"
	"sync"
)

// Gate bounds how many holders may be inside a region at once — a counting
// semaphore. The tuning service shares one Gate across every study's engine
// so that concurrent studies cannot oversubscribe the machine with parallel
// modeling phases; each engine still parallelizes internally via its own
// Workers option once it holds the gate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting up to n concurrent holders (min 1).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free and takes it.
func (g *Gate) Acquire() { g.slots <- struct{}{} }

// Release frees a slot taken by Acquire.
func (g *Gate) Release() { <-g.slots }

// Go runs fn on its own goroutine, registered with wg before the goroutine
// starts and marked done when fn returns, so the owner can always join it
// with wg.Wait. This is the sanctioned way to run a supervised background
// task outside a worker pool — the async engine's batch generator uses it
// so a shutting-down service can wait out an in-flight surrogate fit.
func Go(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}

// ParallelFor runs fn(i) for i ∈ [0, n) on up to workers goroutines and
// blocks until all complete. workers ≤ 1 runs inline.
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int, n) //gptlint:ignore hotpath-alloc the work queue is the price of fanning out; hot paths pay it once per parallel region, never per item
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
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
	wg.Wait()
}

// ParallelChunks splits [0, n) into fixed-size chunks of chunk elements and
// runs fn(chunkIndex, lo, hi) for each on up to workers goroutines. The
// partition depends only on n and chunk — never on workers — so callers that
// keep per-chunk accumulators and merge them in chunk-index order get
// bitwise-identical results for every worker count. This is the backbone of
// the deterministic parallel reductions in the modeling phase (Section 4.3).
func ParallelChunks(n, chunk, workers int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nc := (n + chunk - 1) / chunk
	// Chunk reductions are pure CPU: more workers than GOMAXPROCS only adds
	// scheduling overhead (the result is worker-count independent anyway).
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	ParallelFor(nc, workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	})
}

// NumChunks returns the chunk count ParallelChunks uses for (n, chunk).
func NumChunks(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
}

// MapStream applies fn to every input on up to workers goroutines and
// returns the outputs and per-element errors (nil when fn succeeded) in
// input order. Delivery streams: deliver(i, out, err), when non-nil, is
// invoked on the calling goroutine, in input order, as soon as element i
// and every earlier element have completed — while later elements may
// still be in flight. Checkpoint
// hooks use this to persist completed objective evaluations to a
// write-ahead log mid-batch, in an order that depends only on the input
// order (never on scheduling), so a crashed run's log is always a prefix of
// the uninterrupted run's log. A non-nil error from deliver stops further
// deliveries (in-flight fn calls still drain) and is returned; the full
// out/errs slices are valid either way.
func MapStream[T, R any](inputs []T, workers int, fn func(T) (R, error), deliver func(i int, out R, err error) error) ([]R, []error, error) {
	n := len(inputs)
	out := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var derr error
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(inputs[i])
			if derr == nil && deliver != nil {
				derr = deliver(i, out[i], errs[i])
			}
		}
		return out, errs, derr
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	completed := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = fn(inputs[i])
				completed <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completed)
	}()
	// The calling goroutine is the collector: buffer out-of-order
	// completions and deliver the contiguous prefix. The channel send above
	// happens-after the worker's writes to out[i]/errs[i], so reading them
	// here is race-free.
	delivered := make([]bool, n)
	next := 0
	var derr error
	for i := range completed {
		delivered[i] = true
		for next < n && delivered[next] {
			if derr == nil && deliver != nil {
				derr = deliver(next, out[next], errs[next])
			}
			next++
		}
	}
	return out, errs, derr
}
