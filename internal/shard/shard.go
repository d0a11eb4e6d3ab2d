// Package shard is the one place in this module that starts worker
// goroutines. Every fan-out — the simulators' gate kernels, the solver's
// element kernels and DCT axis passes, interpolator batch queries, backend
// batch evaluation, the execution engine's chunk pool and the fleet's device
// workers — runs on Run or ForRange, so every layer splits work on the same
// boundaries and a panic in any worker reaches the caller as a *PanicError
// instead of killing the process.
//
// It sits at the bottom of the dependency graph, importing only the
// standard library.
package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a shard, carried to the caller with
// the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal panic: %v", e.Value) }

// Run splits the index range [0, n) into at most workers contiguous shards
// on the fixed i*n/w boundaries and calls fn(ctx, slot, lo, hi) once per
// shard, concurrently when more than one shard results; slot is the shard's
// index in [0, w), for per-worker scratch. fn must write only state that is
// disjoint across shards, so the combined result does not depend on
// scheduling order.
//
// A single shard runs inline on the calling goroutine with ctx as given.
// With several, fn receives a context derived from ctx, and the first error
// any shard returns cancels it for the others. A panic in a shard becomes a
// *PanicError on that first-error path, on the inline path too. Run returns
// after every shard has returned: with the parent ctx's error if ctx is done
// by then, so a shard that observed the derived cancellation never masks
// it, and otherwise with the first error.
func Run(ctx context.Context, workers, n int, fn func(ctx context.Context, slot, lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := min(workers, n)
	if w <= 1 {
		return call(ctx, fn, nil, 0, 0, n)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	err := (&group{ctx: cctx, cancel: cancel, fn: fn, w: w, n: n}).spawn()
	if perr := ctx.Err(); perr != nil {
		return perr
	}
	return err
}

// ForRange is the no-error form of Run for compute kernels: fn(slot, lo, hi)
// runs once per shard of [0, n) on the same boundaries, inline when a single
// shard results. A panic in any shard is re-raised on the calling goroutine
// as a *PanicError once every shard has returned.
func ForRange(workers, n int, fn func(slot, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(workers, n)
	var err error
	if w <= 1 {
		err = call(nil, nil, fn, 0, 0, n)
	} else {
		err = (&group{plain: fn, w: w, n: n}).spawn()
	}
	if err != nil {
		panic(err)
	}
}

// group is one multi-shard run: its inputs and the state its goroutines
// share, kept in a single allocation. Exactly one of fn and plain is set;
// cancel, when set, is called on the first error.
type group struct {
	ctx    context.Context
	cancel context.CancelFunc
	fn     func(context.Context, int, int, int) error
	plain  func(int, int, int)
	w, n   int

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// spawn runs the w shards of [0, n) on w goroutines, waits for all of them,
// and returns the first error.
func (g *group) spawn() error {
	g.wg.Add(g.w)
	for slot := 0; slot < g.w; slot++ {
		go g.shard(slot)
	}
	g.wg.Wait()
	return g.err
}

func (g *group) shard(slot int) {
	defer g.wg.Done()
	err := call(g.ctx, g.fn, g.plain, slot, slot*g.n/g.w, (slot+1)*g.n/g.w)
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	if g.cancel != nil {
		g.cancel()
	}
}

// call runs one shard, converting a panic into a *PanicError. A panic that
// already carries one — re-raised by a nested ForRange — passes through
// unchanged, keeping the original stack.
func call(ctx context.Context, fn func(context.Context, int, int, int) error, plain func(int, int, int), slot, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe, ok := v.(*PanicError)
			if !ok {
				pe = &PanicError{Value: v, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	if plain != nil {
		plain(slot, lo, hi)
		return nil
	}
	return fn(ctx, slot, lo, hi)
}
