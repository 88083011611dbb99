// Package parallel is the shared concurrent-evaluation engine: a bounded
// worker pool with deterministic result ordering. Every fan-out in the
// system — sweep grid points, forest trees, synthetic sectors, spatial
// correlation rows — routes through it, so the scheduling policy and the
// determinism contract live in one place.
//
// The contract has two halves:
//
//  1. Results are returned in input order, never in completion order.
//  2. Callers must key any randomness by the item's identity (index or
//     grid point), not by scheduling order — see randx.DeriveIndexed.
//
// Together these make every parallel computation bit-identical to its
// sequential counterpart, which the forecast sweep's determinism test
// enforces end to end.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 mean GOMAXPROCS,
// and the count is clamped to n (no point spawning idle goroutines).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item on a bounded pool and returns the results
// in input order. fn receives the item's index so callers can derive
// index-keyed RNG streams. If any invocation fails, Map returns the error
// of the lowest-indexed failing item (deterministic regardless of
// scheduling); all invocations still run to completion.
//
// workers <= 0 means GOMAXPROCS. With workers == 1 (or a single item) the
// items run on the calling goroutine with no pool overhead; a single item
// allocates only its one-element result.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if len(items) == 1 {
		poolRuns.Inc()
		r, err := fn(0, items[0])
		poolTasks.Inc()
		if err != nil {
			return nil, err
		}
		return []R{r}, nil
	}
	out := make([]R, len(items))
	errs := make([]error, len(items))
	run(workers, len(items), func(i int) {
		out[i], errs[i] = fn(i, items[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// For runs fn(i) for i in [0, n) on a bounded pool. Like Map it returns
// the lowest-indexed error, after all iterations have run.
func For(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	run(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Gather runs independent thunks concurrently and returns their results in
// slice order — the fan-out shape for heterogeneous work (e.g. the two
// arms of an ablation). Error selection matches Map.
func Gather[R any](workers int, thunks []func() (R, error)) ([]R, error) {
	return Map(workers, thunks, func(_ int, thunk func() (R, error)) (R, error) {
		return thunk()
	})
}

// Stream applies fn to every item on a bounded pool and hands each result
// to consume strictly in input order, as soon as the next-in-order result
// is ready — the streaming counterpart of Map for pipelines that must not
// buffer the whole result set. consume runs only on the calling goroutine,
// so it may write to unsynchronised sinks (a CSV file, a progress line).
//
// Memory stays bounded: workers run at most a fixed window of items ahead
// of the oldest unconsumed index, so O(workers) results are parked at any
// time regardless of n. The first error in input order — whether from fn
// or from consume — stops the stream (in-flight items finish, no new items
// start) and is returned; this matches Map's lowest-index error selection
// for errors that the stream reaches before stopping.
func Stream[T, R any](workers int, items []T, fn func(i int, item T) (R, error), consume func(i int, r R) error) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	poolRuns.Inc()
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i, items[i])
			poolTasks.Inc()
			if err != nil {
				return err
			}
			if err := consume(i, r); err != nil {
				return err
			}
		}
		return nil
	}

	window := 4 * workers
	if window < 16 {
		window = 16
	}
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		ready   = make(map[int]R)
		failed  = make(map[int]error)
		next    int  // next index to hand to a worker
		floor   int  // next index to hand to consume
		stopped bool // no new items may start
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			for {
				mu.Lock()
				for !stopped && next < n && next >= floor+window {
					cond.Wait()
				}
				if stopped || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				r, err := fn(i, items[i])
				poolTasks.Inc()
				mu.Lock()
				if err != nil {
					failed[i] = err
				} else {
					ready[i] = r
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	var firstErr error
	mu.Lock()
	for floor < n {
		r, ok := ready[floor]
		err, bad := failed[floor]
		if !ok && !bad {
			cond.Wait()
			continue
		}
		i := floor
		floor++
		delete(ready, i)
		delete(failed, i)
		if bad {
			firstErr = err
			break
		}
		cond.Broadcast() // the window moved: wake throttled workers
		mu.Unlock()
		cerr := consume(i, r)
		mu.Lock()
		if cerr != nil {
			firstErr = cerr
			break
		}
	}
	stopped = true
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()
	return firstErr
}

// Semaphore bounds concurrent access to a resource — the admission-control
// half of the package, used by servers (cmd/hotserve caps in-flight
// forecast requests) where the fan-out shape of Map/Stream does not fit
// because work arrives from outside rather than from a slice.
type Semaphore struct {
	slots chan struct{}
	// bulk serializes TryAcquireN claimants: two concurrent bulk claims
	// grabbing slots incrementally could each hold a partial set and
	// mutually fail even though one of them could have been admitted.
	bulk sync.Mutex
}

// NewSemaphore returns a semaphore admitting up to n concurrent holders
// (n < 1 is clamped to 1).
func NewSemaphore(n int) *Semaphore {
	if n < 1 {
		n = 1
	}
	return &Semaphore{slots: make(chan struct{}, n)}
}

// TryAcquire claims a slot without blocking, reporting whether one was
// free. Callers that got true must Release.
func (s *Semaphore) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Acquire blocks until a slot is free. Callers must Release.
func (s *Semaphore) Acquire() { s.slots <- struct{}{} }

// Release frees a slot claimed by Acquire or a successful TryAcquire.
func (s *Semaphore) Release() { <-s.slots }

// Cap returns the semaphore's slot capacity.
func (s *Semaphore) Cap() int { return cap(s.slots) }

// InUse returns the number of slots currently held — the live utilization
// number a gauge reads at scrape time.
func (s *Semaphore) InUse() int { return len(s.slots) }

// TryAcquireN claims n slots without blocking, all or nothing: on failure
// no slots remain held. Used for weighted admission, where one request
// charges a cost proportional to the work it carries (a batch of k
// forecasts costs k slots, not 1). Bulk claims are serialized against each
// other so partial grabs cannot livelock two claimants into mutual 503s;
// single-slot claims (TryAcquire, or n == 1) skip that lock and interleave
// freely (a lost race there just means the capacity genuinely went
// elsewhere). n above the capacity can never succeed; n <= 0 trivially
// succeeds. Callers that got true must ReleaseN(n).
func (s *Semaphore) TryAcquireN(n int) bool {
	if n <= 1 {
		return n <= 0 || s.TryAcquire()
	}
	s.bulk.Lock()
	defer s.bulk.Unlock()
	for got := 0; got < n; got++ {
		if !s.TryAcquire() {
			s.ReleaseN(got)
			return false
		}
	}
	return true
}

// ReleaseN frees n slots claimed by a successful TryAcquireN.
func (s *Semaphore) ReleaseN(n int) {
	for ; n > 0; n-- {
		s.Release()
	}
}

// run is the pool core: it executes body(i) for i in [0, n) on
// Workers(workers, n) goroutines. Indices are handed out through a channel
// so long items do not convoy behind a fixed pre-partition.
func run(workers, n int, body func(i int)) {
	if n == 0 {
		return
	}
	poolRuns.Inc()
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
			poolTasks.Inc()
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			for i := range work {
				queueDepth.Add(-1)
				body(i)
				poolTasks.Inc()
			}
		}()
	}
	queueDepth.Add(int64(n))
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
