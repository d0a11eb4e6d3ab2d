package exec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/shard"
)

// batch builds n 2-parameter points with distinct coordinates.
func batch(n int) [][]float64 {
	ps := make([][]float64, n)
	for i := range ps {
		ps[i] = []float64{float64(i) * 0.01, -float64(i) * 0.02}
	}
	return ps
}

func costOf(p []float64) float64 { return math.Sin(p[0]) + 2*math.Cos(p[1]) }

func pointEval(p []float64) (float64, error) { return costOf(p), nil }

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	params := batch(937) // non-multiple of any chunk size
	var want []float64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, chunkSize := range []int{0, 1, 7, 1024} {
			en := New(Lift(pointEval), Options{Workers: workers, ChunkSize: chunkSize})
			got, err := en.EvaluateBatch(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(params) {
				t.Fatalf("workers=%d: %d results for %d points", workers, len(got), len(params))
			}
			if want == nil {
				want = got
				for i, p := range params {
					if got[i] != costOf(p) {
						t.Fatalf("result %d = %g, want %g", i, got[i], costOf(p))
					}
				}
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d chunk=%d: result %d differs: %g vs %g",
						workers, chunkSize, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEngineSequentialWithOneWorker checks the Workers=1 ordering contract
// that evaluators with a shared random stream rely on.
func TestEngineSequentialWithOneWorker(t *testing.T) {
	params := batch(100)
	var order []int
	en := New(Lift(func(p []float64) (float64, error) {
		order = append(order, int(math.Round(p[0]/0.01)))
		return 0, nil
	}), Options{Workers: 1, ChunkSize: 7})
	if _, err := en.EvaluateBatch(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(params) {
		t.Fatalf("evaluated %d of %d points", len(order), len(params))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("evaluation order[%d] = %d, want ascending", i, idx)
		}
	}
}

func TestEngineCacheAccounting(t *testing.T) {
	var execs atomic.Int64
	cache := NewCache(0)
	en := New(Lift(func(p []float64) (float64, error) {
		execs.Add(1)
		return costOf(p), nil
	}), Options{Workers: 4, Cache: cache})

	params := batch(200)
	// First pass: all misses.
	first, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 200 {
		t.Fatalf("first pass executed %d points, want 200", got)
	}
	if cache.Hits() != 0 || cache.Misses() != 200 {
		t.Fatalf("first pass hits=%d misses=%d, want 0/200", cache.Hits(), cache.Misses())
	}
	// Second pass: all hits, zero executions, identical values.
	second, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 200 {
		t.Fatalf("second pass re-executed: %d total execs", got)
	}
	if cache.Hits() != 200 {
		t.Fatalf("second pass hits=%d, want 200", cache.Hits())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached value %d differs: %g vs %g", i, first[i], second[i])
		}
	}
	if cache.Len() != 200 {
		t.Fatalf("cache holds %d entries, want 200", cache.Len())
	}
}

// TestEngineCacheDedupWithinBatch submits the same point many times in one
// batch and checks it executes once.
func TestEngineCacheDedupWithinBatch(t *testing.T) {
	var execs atomic.Int64
	cache := NewCache(0)
	en := New(Lift(func(p []float64) (float64, error) {
		execs.Add(1)
		return costOf(p), nil
	}), Options{Workers: 4, Cache: cache})

	params := make([][]float64, 64)
	for i := range params {
		params[i] = []float64{0.25, -0.5} // same point, fresh slice each time
	}
	vals, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("duplicate point executed %d times", got)
	}
	// One execution: 1 miss, the 63 duplicates are hits.
	if cache.Misses() != 1 || cache.Hits() != 63 {
		t.Fatalf("dedup accounting hits=%d misses=%d, want 63/1", cache.Hits(), cache.Misses())
	}
	want := costOf(params[0])
	for i, v := range vals {
		if v != want {
			t.Fatalf("result %d = %g, want %g", i, v, want)
		}
	}
}

// gatedEval is an evaluator whose executions block until release is closed;
// started receives once per execution, and fail makes the first execution
// return an error.
type gatedEval struct {
	execs   atomic.Int64
	started chan struct{}
	release chan struct{}
	fail    bool
}

func newGatedEval(fail bool) *gatedEval {
	return &gatedEval{started: make(chan struct{}, 64), release: make(chan struct{}), fail: fail}
}

func (g *gatedEval) eval(p []float64) (float64, error) {
	n := g.execs.Add(1)
	g.started <- struct{}{}
	<-g.release
	if g.fail && n == 1 {
		return 0, errors.New("first execution failed")
	}
	return costOf(p), nil
}

// await receives from ch or fails the test after a generous limit, so a
// coalescing bug shows as a failure rather than a hung test binary.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestEngineCacheCoalescesConcurrentBatches: batches that miss a point while
// another batch is executing it wait for that execution instead of running
// it again, and count as hits.
func TestEngineCacheCoalescesConcurrentBatches(t *testing.T) {
	ev := newGatedEval(false)
	cache := NewCache(0)
	en := New(Lift(ev.eval), Options{Workers: 2, Cache: cache})
	p := []float64{0.25, -0.5}
	const n = 8
	vals := make(chan float64, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			v, err := en.EvaluateBatch(context.Background(), [][]float64{{p[0], p[1]}})
			if err != nil {
				errs <- err
				return
			}
			vals <- v[0]
		}()
		if i == 0 {
			await(t, ev.started, "the first execution")
		}
	}
	// Give the other batches time to reach the pending point; one that
	// arrives after the release finds it stored, which is a hit as well.
	time.Sleep(20 * time.Millisecond)
	close(ev.release)
	for i := 0; i < n; i++ {
		select {
		case v := <-vals:
			if v != costOf(p) {
				t.Fatalf("value %g, want %g", v, costOf(p))
			}
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for the batches")
		}
	}
	if got := ev.execs.Load(); got != 1 {
		t.Fatalf("%d concurrent batches executed the point %d times, want 1", n, got)
	}
	if cache.Misses() != 1 || cache.Hits() != n-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", cache.Hits(), cache.Misses(), n-1)
	}
}

// TestEngineCacheWaiterCancelKeepsExecutor: canceling a batch that waits on
// another batch's execution returns its ctx error and leaves the executing
// batch to finish and store the value.
func TestEngineCacheWaiterCancelKeepsExecutor(t *testing.T) {
	ev := newGatedEval(false)
	cache := NewCache(0)
	en := New(Lift(ev.eval), Options{Workers: 1, Cache: cache})
	p := []float64{0.25, -0.5}
	owner := make(chan error, 1)
	go func() {
		_, err := en.EvaluateBatch(context.Background(), [][]float64{p})
		owner <- err
	}()
	await(t, ev.started, "the owner's execution")
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := en.EvaluateBatch(ctx, [][]float64{p})
		waiter <- err
	}()
	cancel()
	if err := await(t, waiter, "the canceled waiter"); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(ev.release)
	if err := await(t, owner, "the owner"); err != nil {
		t.Fatalf("owner failed after a waiter was canceled: %v", err)
	}
	if v, ok := cache.Lookup(p); !ok || v != costOf(p) {
		t.Fatalf("owner's value not stored: %g, %v", v, ok)
	}
	if got := ev.execs.Load(); got != 1 {
		t.Fatalf("point executed %d times, want 1", got)
	}
}

// TestEngineCacheWaiterRunsFailedFlight: when the executing batch fails, a
// batch waiting on its point executes the point itself.
func TestEngineCacheWaiterRunsFailedFlight(t *testing.T) {
	ev := newGatedEval(true)
	cache := NewCache(0)
	en := New(Lift(ev.eval), Options{Workers: 1, Cache: cache})
	p := []float64{0.25, -0.5}
	owner := make(chan error, 1)
	go func() {
		_, err := en.EvaluateBatch(context.Background(), [][]float64{p})
		owner <- err
	}()
	await(t, ev.started, "the owner's execution")
	type result struct {
		v   []float64
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, err := en.EvaluateBatch(context.Background(), [][]float64{p, p})
		waiter <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond)
	close(ev.release)
	if err := await(t, owner, "the owner"); err == nil {
		t.Fatal("owner's failed execution returned no error")
	}
	r := await(t, waiter, "the waiter")
	if r.err != nil {
		t.Fatalf("waiter inherited the owner's failure: %v", r.err)
	}
	if r.v[0] != costOf(p) || r.v[1] != costOf(p) {
		t.Fatalf("waiter values %v, want %g", r.v, costOf(p))
	}
	if got := ev.execs.Load(); got != 2 {
		t.Fatalf("point executed %d times, want 2 (failed owner, then waiter)", got)
	}
	// Each lookup is counted once: two executions, and the waiter's
	// duplicate served by its own execution.
	if cache.Misses() != 2 || cache.Hits() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/2", cache.Hits(), cache.Misses())
	}
}

// TestEngineCacheQuantization checks that sub-quantum jitter shares an entry
// while supra-quantum separation does not.
func TestEngineCacheQuantization(t *testing.T) {
	cache := NewCache(1e-6)
	cache.Store([]float64{0.5}, 42)
	if v, ok := cache.Lookup([]float64{0.5 + 1e-9}); !ok || v != 42 {
		t.Fatalf("sub-quantum jitter missed the cache (ok=%v v=%g)", ok, v)
	}
	if _, ok := cache.Lookup([]float64{0.5 + 1e-4}); ok {
		t.Fatal("distinct point hit the cache")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	en := New(Lift(func(p []float64) (float64, error) {
		if seen.Add(1) == 10 {
			cancel() // cancel mid-batch from inside an evaluation
		}
		return 0, nil
	}), Options{Workers: 2, ChunkSize: 4})
	_, err := en.EvaluateBatch(ctx, batch(10_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop the batch (%d points ran)", n)
	}
}

func TestEnginePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	en := New(Lift(pointEval), Options{})
	if _, err := en.EvaluateBatch(ctx, batch(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var seen atomic.Int64
	en := New(Lift(func(p []float64) (float64, error) {
		if seen.Add(1) == 5 {
			return 0, boom
		}
		return 0, nil
	}), Options{Workers: 3, ChunkSize: 2})
	if _, err := en.EvaluateBatch(context.Background(), batch(1000)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestEnginePanicIsReturned: a panic in a worker goroutine comes back as a
// *shard.PanicError, whatever the worker count, instead of killing the
// process.
func TestEnginePanicIsReturned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		en := New(BatchFunc(func(ctx context.Context, params [][]float64) ([]float64, error) {
			panic("evaluator blew up")
		}), Options{Workers: workers, ChunkSize: 2})
		_, err := en.EvaluateBatch(context.Background(), batch(40))
		var pe *shard.PanicError
		if !errors.As(err, &pe) || pe.Value != "evaluator blew up" {
			t.Fatalf("workers=%d: err = %v, want *shard.PanicError", workers, err)
		}
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	en := New(Lift(pointEval), Options{})
	vals, err := en.EvaluateBatch(context.Background(), nil)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty batch: vals=%v err=%v", vals, err)
	}
}

// TestFromEvaluator checks native batch implementations are picked up while
// plain evaluators are lifted.
func TestFromEvaluator(t *testing.T) {
	plain := &backend.Func{Label: "plain", Params: 1, F: func(p []float64) (float64, error) { return p[0], nil }}
	be := FromEvaluator(plain)
	vals, err := be.EvaluateBatch(context.Background(), [][]float64{{1}, {2}})
	if err != nil || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("lifted evaluator: vals=%v err=%v", vals, err)
	}
	if _, native := backend.Evaluator(plain).(BatchEvaluator); !native {
		// backend.Func implements EvaluateBatch natively; if that changes
		// this test documents that FromEvaluator still works via Lift.
		t.Log("backend.Func has no native batch path; using Lift")
	}
}

func TestChunkSize(t *testing.T) {
	cases := []struct {
		n, w, conf, want int
	}{
		{n: 10, w: 4, conf: 3, want: 3},
		{n: 10, w: 4, conf: 0, want: 1},
		{n: 5000, w: 8, conf: 0, want: 78},
		{n: 1 << 20, w: 1, conf: 0, want: 512},
	}
	for _, c := range cases {
		if got := chunkSize(c.n, c.w, c.conf); got != c.want {
			t.Errorf("chunkSize(%d,%d,%d) = %d, want %d", c.n, c.w, c.conf, got, c.want)
		}
	}
}
