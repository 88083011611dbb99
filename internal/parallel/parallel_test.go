package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, max},
		{-3, 100, max},
		{4, 100, 4},
		{8, 3, 3},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		items := make([]int, 100)
		for i := range items {
			items[i] = i * 3
		}
		out, err := Map(workers, items, func(i, item int) (string, error) {
			return fmt.Sprintf("%d:%d", i, item), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range out {
			if want := fmt.Sprintf("%d:%d", i, i*3); s != want {
				t.Fatalf("workers=%d out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, nil, func(i, item int) (int, error) { return item, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map on nil = (%v, %v)", out, err)
	}
}

func TestMapLowestIndexedError(t *testing.T) {
	items := make([]int, 50)
	// Items 7, 13 and 31 fail: the reported error must always be item 7's,
	// no matter which worker finishes first.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(8, items, func(i, _ int) (int, error) {
			switch i {
			case 7, 13, 31:
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("trial %d: err = %v, want item 7's", trial, err)
		}
	}
}

func TestForRunsAll(t *testing.T) {
	var sum atomic.Int64
	if err := For(4, 1000, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 999*1000/2 {
		t.Fatalf("sum = %d", got)
	}
}

func TestForError(t *testing.T) {
	err := For(4, 10, func(i int) error {
		if i >= 5 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 5" {
		t.Fatalf("err = %v, want boom 5", err)
	}
}

func TestGather(t *testing.T) {
	thunks := make([]func() (int, error), 10)
	for i := range thunks {
		i := i
		thunks[i] = func() (int, error) { return i * i, nil }
	}
	out, err := Gather(3, thunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestStreamOrderedDelivery(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		items := make([]int, 200)
		for i := range items {
			items[i] = i * 2
		}
		var got []string
		err := Stream(workers, items, func(i, item int) (string, error) {
			return fmt.Sprintf("%d:%d", i, item), nil
		}, func(i int, r string) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d delivered %d of %d", workers, len(got), len(items))
		}
		for i, s := range got {
			if want := fmt.Sprintf("%d:%d", i, i*2); s != want {
				t.Fatalf("workers=%d got[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	err := Stream(4, nil, func(i, item int) (int, error) { return item, nil },
		func(int, int) error { t.Fatal("consume on empty input"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamFirstErrorInOrder: when several items fail, the error that
// surfaces is the first one the in-order consumer reaches, and nothing
// after it is consumed.
func TestStreamFirstErrorInOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		consumed := -1
		err := Stream(8, make([]int, 50), func(i, _ int) (int, error) {
			switch i {
			case 7, 13, 31:
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		}, func(i, _ int) error {
			if i != consumed+1 {
				t.Fatalf("out-of-order consumption: %d after %d", i, consumed)
			}
			consumed = i
			return nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("trial %d: err = %v, want item 7's", trial, err)
		}
		if consumed != 6 {
			t.Fatalf("trial %d: consumed through %d, want 6", trial, consumed)
		}
	}
}

// TestStreamConsumeErrorStops: a consume error cancels the stream and is
// returned; workers stop picking up new items.
func TestStreamConsumeErrorStops(t *testing.T) {
	var started atomic.Int64
	n := 500
	err := Stream(4, make([]int, n), func(i, _ int) (int, error) {
		started.Add(1)
		return i, nil
	}, func(i, _ int) error {
		if i == 3 {
			return fmt.Errorf("sink full")
		}
		return nil
	})
	if err == nil || err.Error() != "sink full" {
		t.Fatalf("err = %v, want sink full", err)
	}
	if s := started.Load(); s == int64(n) {
		t.Fatalf("all %d items ran despite early consume error", n)
	}
}

// TestStreamBoundedWindow: workers must not run unboundedly ahead of a
// slow consumer — in-flight work stays within the reorder window.
func TestStreamBoundedWindow(t *testing.T) {
	workers := 4
	window := 16 // the implementation's floor for small worker counts
	var maxAhead atomic.Int64
	var floor atomic.Int64
	err := Stream(workers, make([]int, 300), func(i, _ int) (int, error) {
		ahead := int64(i) - floor.Load()
		for {
			cur := maxAhead.Load()
			if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
				break
			}
		}
		return i, nil
	}, func(i, _ int) error {
		floor.Store(int64(i) + 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A started item can be at most window+workers ahead of the floor the
	// worker observed (the floor may lag behind the consumer's progress).
	if got := maxAhead.Load(); got > int64(window+workers) {
		t.Fatalf("worker ran %d items ahead of the consumer, window is %d", got, window)
	}
}

// TestMapSequentialFallback confirms workers=1 runs on the calling
// goroutine (observable: iteration order is strictly ascending).
func TestMapSequentialFallback(t *testing.T) {
	last := -1
	_, err := Map(1, make([]int, 100), func(i, _ int) (int, error) {
		if i != last+1 {
			t.Fatalf("out-of-order sequential iteration: %d after %d", i, last)
		}
		last = i
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSemaphoreBoundsConcurrency: at most n holders at once, TryAcquire
// refuses when full, and released slots readmit.
func TestSemaphoreBoundsConcurrency(t *testing.T) {
	sem := NewSemaphore(2)
	if !sem.TryAcquire() || !sem.TryAcquire() {
		t.Fatal("fresh semaphore refused admission")
	}
	if sem.TryAcquire() {
		t.Fatal("third holder admitted past capacity 2")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("released slot not readmitted")
	}
	sem.Release()
	sem.Release()

	// Concurrent holders never exceed the bound.
	sem = NewSemaphore(3)
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem.Acquire()
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			sem.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeded semaphore bound 3", p)
	}
}

// TestSemaphoreTryAcquireN: weighted admission is all-or-nothing — a
// refused bulk claim leaves every slot free, a granted one holds exactly n.
func TestSemaphoreTryAcquireN(t *testing.T) {
	sem := NewSemaphore(4)
	if sem.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", sem.Cap())
	}
	if !sem.TryAcquireN(3) {
		t.Fatal("3 of 4 refused on an idle semaphore")
	}
	if sem.TryAcquireN(2) {
		t.Fatal("2 slots granted with only 1 free")
	}
	// The refused claim must not have eaten the remaining slot.
	if !sem.TryAcquire() {
		t.Fatal("failed TryAcquireN leaked the last free slot")
	}
	sem.Release()
	sem.ReleaseN(3)
	if !sem.TryAcquireN(4) {
		t.Fatal("full capacity refused after releasing everything")
	}
	sem.ReleaseN(4)
	if !sem.TryAcquireN(0) {
		t.Fatal("zero-cost claim refused")
	}
	if sem.TryAcquireN(5) {
		t.Fatal("claim above capacity granted")
	}
	if !sem.TryAcquireN(4) {
		t.Fatal("failed above-capacity claim leaked slots")
	}
	sem.ReleaseN(4)
}

func TestNewSemaphoreClampsToOne(t *testing.T) {
	sem := NewSemaphore(0)
	if !sem.TryAcquire() {
		t.Fatal("clamped semaphore has no slot")
	}
	if sem.TryAcquire() {
		t.Fatal("clamped semaphore admitted two holders")
	}
	sem.Release()
}

// TestMapOneItemRunsOnCaller: a one-item Map calls fn directly, allocates
// only its one-element result, passes fn's error through, and still
// counts one pool run of one task.
func TestMapOneItemRunsOnCaller(t *testing.T) {
	double := func(i, item int) (int, error) { return 2*item + i, nil }
	runs, tasks := poolRuns.Value(), poolTasks.Value()
	out, err := Map(8, []int{21}, double)
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("Map of one = (%v, %v), want [42]", out, err)
	}
	if dr, dt := poolRuns.Value()-runs, poolTasks.Value()-tasks; dr != 1 || dt != 1 {
		t.Fatalf("Map of one counted %d runs and %d tasks, want 1 and 1", dr, dt)
	}
	boom := fmt.Errorf("boom")
	if out, err := Map(8, []int{1}, func(int, int) (int, error) { return 7, boom }); out != nil || err != boom {
		t.Fatalf("failing Map of one = (%v, %v), want (nil, boom)", out, err)
	}
	items := []int{21}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Map(8, items, double) }); allocs > 1 {
		t.Fatalf("Map of one allocates %v times, want at most 1 (its result)", allocs)
	}
}
