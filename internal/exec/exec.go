// Package exec is the batched execution engine every evaluation fan-out in
// this repository runs on. The paper's phase-2 "circuit execution" is
// embarrassingly parallel, and real cloud QPUs reward job batching — a fixed
// queue latency amortized across a batch — so the engine models exactly that
// shape: callers submit whole batches of parameter vectors, the engine chunks
// them across a worker pool, and the underlying evaluator sees contiguous
// sub-batches it can execute natively.
//
// The engine guarantees:
//
//   - Deterministic result ordering: result[i] always corresponds to
//     params[i], regardless of worker count or chunk size.
//   - Sequential evaluation order under Workers=1 (ascending index), so
//     evaluators that consume a shared random stream stay reproducible.
//   - Context cancellation: a canceled ctx stops the run between chunks and
//     the engine returns ctx.Err().
//   - Optional memoization: with a Cache, quantized parameter vectors are
//     executed at most once — across calls, within a batch and across
//     concurrent batches sharing the cache — so optimizers re-visiting
//     stencil points, ZNE sweeps and overlapping service jobs never pay
//     twice.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/shard"
)

// BatchEvaluator computes costs for a batch of parameter vectors. The
// returned slice must have one value per input vector, in input order.
// Implementations must be safe for concurrent use: the engine calls
// EvaluateBatch from multiple workers on disjoint chunks.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error)
}

// BatchFunc adapts a function into a BatchEvaluator.
type BatchFunc func(ctx context.Context, params [][]float64) ([]float64, error)

// EvaluateBatch implements BatchEvaluator.
func (f BatchFunc) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	return f(ctx, params)
}

// Lift adapts a point evaluator into a BatchEvaluator that loops over the
// batch, checking ctx between points.
func Lift(eval func(params []float64) (float64, error)) BatchEvaluator {
	return BatchFunc(func(ctx context.Context, params [][]float64) ([]float64, error) {
		out := make([]float64, len(params))
		for i, p := range params {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := eval(p)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	})
}

// FromEvaluator lifts a backend evaluator into a BatchEvaluator, using its
// native batch implementation when it has one.
func FromEvaluator(e backend.Evaluator) BatchEvaluator {
	if b, ok := e.(BatchEvaluator); ok {
		return b
	}
	return Lift(e.Evaluate)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent chunk evaluations (0 = GOMAXPROCS).
	Workers int
	// ChunkSize is the number of points handed to the inner evaluator per
	// call (0 = automatic: batches are split so every worker gets several
	// chunks, bounding both scheduling overhead and load imbalance).
	ChunkSize int
	// Cache optionally memoizes results by quantized parameter vector.
	Cache *Cache
}

// Engine schedules batch evaluations over a chunking worker pool. An Engine
// is itself a BatchEvaluator, so engines compose (e.g. a cache-backed engine
// wrapping a ZNE evaluator that batches its own noise-scale sweep).
type Engine struct {
	inner BatchEvaluator
	opts  Options
}

// New builds an engine around inner.
func New(inner BatchEvaluator, opts Options) *Engine {
	return &Engine{inner: inner, opts: opts}
}

// chunkSize resolves the chunk size for a batch of n points on w workers.
func chunkSize(n, w, configured int) int {
	if configured > 0 {
		return configured
	}
	// Aim for ~8 chunks per worker so stragglers rebalance, but never less
	// than 1 point or more than 512 per inner call.
	c := n / (w * 8)
	if c < 1 {
		c = 1
	}
	if c > 512 {
		c = 512
	}
	return c
}

// EvaluateBatch implements BatchEvaluator: evaluate every parameter vector,
// returning values in input order.
func (e *Engine) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(params)
	results := make([]float64, n)
	if n == 0 {
		return results, nil
	}
	span, ctx := obs.Start(ctx, "exec.batch")
	defer span.End()
	span.SetAttr("points", n)

	c := e.opts.Cache
	if c == nil {
		// No cache: results is index-aligned with params, so the pool
		// writes into it directly.
		span.SetAttr("executed", n)
		if err := e.run(ctx, params, results); err != nil {
			span.SetError(err)
			return nil, err
		}
		return results, nil
	}

	executed, err := e.evaluateCached(ctx, c, params, results)
	span.SetAttr("cache_hits", n-executed)
	span.SetAttr("executed", executed)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	return results, nil
}

// pendingPoint is one distinct point of a cache pass: its key, the flight
// executing it (nil for an uncacheable point) and the result positions it
// serves.
type pendingPoint struct {
	key string
	f   *flight
	pos []int
}

// evaluateCached fills results through cache c and returns how many points
// it executed. A pass serves stored points immediately and deduplicates the
// rest, so each distinct point executes once: within the batch, and across
// concurrent batches, since a point another batch is already executing is
// waited for and counted as a hit instead (in-flight coalescing). Waits
// start only after the batch's own work has run and released its waiters,
// so batches waiting on each other cannot deadlock, and canceling ctx ends
// the wait without touching the other batch's execution. Points whose
// executing batch failed go round again in the next pass.
//
// Points whose coordinates cannot be quantized into a collision-free key
// (NaN, ±Inf, beyond the int64-safe range) bypass the cache: they always
// execute and are never stored or deduplicated, so a degenerate coordinate
// can never alias a legitimate cached point.
func (e *Engine) evaluateCached(ctx context.Context, c *Cache, params [][]float64, results []float64) (executed int, err error) {
	todo := make([]int, len(params))
	for i := range todo {
		todo[i] = i
	}
	for len(todo) > 0 {
		var work, waits []pendingPoint
		// seen maps a key to its index in work, or ^index in waits.
		seen := make(map[string]int, len(todo))
		for _, i := range todo {
			k, kok := c.key(params[i])
			if !kok {
				c.misses.Add(1)
				work = append(work, pendingPoint{pos: []int{i}})
				continue
			}
			if j, ok := seen[k]; ok {
				if j >= 0 {
					// Duplicate of a point this batch executes: served by
					// its single execution, so it counts as a hit.
					c.hits.Add(1)
					work[j].pos = append(work[j].pos, i)
				} else {
					waits[^j].pos = append(waits[^j].pos, i)
				}
				continue
			}
			if v, ok := c.peek(k); ok {
				c.hits.Add(1)
				results[i] = v
				continue
			}
			switch v, f, own := c.claim(k); {
			case f == nil:
				c.hits.Add(1)
				results[i] = v
			case own:
				c.misses.Add(1)
				seen[k] = len(work)
				work = append(work, pendingPoint{key: k, f: f, pos: []int{i}})
			default:
				seen[k] = ^len(waits)
				waits = append(waits, pendingPoint{key: k, f: f, pos: []int{i}})
			}
		}
		executed += len(work)
		if err := e.runPending(ctx, c, params, work, results); err != nil {
			return executed, err
		}
		todo = todo[:0]
		for _, w := range waits {
			select {
			case <-w.f.done:
			case <-ctx.Done():
				return executed, ctx.Err()
			}
			if !w.f.ok {
				todo = append(todo, w.pos...)
				continue
			}
			c.hits.Add(int64(len(w.pos)))
			for _, i := range w.pos {
				results[i] = w.f.v
			}
		}
	}
	return executed, nil
}

// runPending executes the batch's own points, writes their results and
// finishes their flights — as failed if the run did not complete, so that
// waiting batches execute those points themselves.
func (e *Engine) runPending(ctx context.Context, c *Cache, params [][]float64, work []pendingPoint, results []float64) error {
	if len(work) == 0 {
		return nil
	}
	pts := make([][]float64, len(work))
	for j, w := range work {
		pts[j] = params[w.pos[0]]
	}
	values := make([]float64, len(work))
	done := false
	defer func() {
		for j, w := range work {
			if w.f != nil {
				c.finish(w.key, w.f, values[j], done)
			}
		}
	}()
	if err := e.run(ctx, pts, values); err != nil {
		return err
	}
	done = true
	for j, w := range work {
		for _, i := range w.pos {
			results[i] = values[j]
		}
	}
	return nil
}

// run executes work into values (index-aligned) on the worker pool: each
// worker claims the next chunk from a shared counter, so chunks start in
// ascending order, and under one worker they run inline in that order.
func (e *Engine) run(ctx context.Context, work [][]float64, values []float64) error {
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := chunkSize(len(work), min(workers, len(work)), e.opts.ChunkSize)
	var next atomic.Int64
	return shard.Run(ctx, workers, len(work), func(ctx context.Context, _, _, _ int) error {
		for {
			lo := int(next.Add(int64(size))) - size
			if lo >= len(work) {
				return nil
			}
			hi := min(lo+size, len(work))
			if err := ctx.Err(); err != nil {
				return err
			}
			vals, err := e.inner.EvaluateBatch(ctx, work[lo:hi])
			if err != nil {
				return err
			}
			if len(vals) != hi-lo {
				return errors.New("exec: inner evaluator returned wrong batch length")
			}
			copy(values[lo:hi], vals)
		}
	})
}
