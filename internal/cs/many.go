package cs

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/shard"
)

// Job describes one independent reconstruction: recover a Rows×Cols
// landscape from the values Y observed at row-major grid indices Idx, solved
// with Opt. An Opt whose only set field is Workers is promoted to
// DefaultOptions (keeping that worker count), matching every other
// reconstruction entry point.
type Job struct {
	Rows, Cols int
	Idx        []int
	Y          []float64
	Opt        Options
}

// JobResult pairs a job's reconstruction with its error. Exactly one of
// Result and Err is set.
type JobResult struct {
	Result *Result
	Err    error
}

// ReconstructMany solves independent reconstruction jobs concurrently on a
// worker pool and returns one JobResult per job, index-aligned with jobs (the
// engine's deterministic-ordering convention). Errors are isolated per job: a
// failing job does not stop the others. A canceled ctx stops in-flight
// solves between iterations and marks every unfinished job with ctx.Err().
//
// Jobs themselves are the unit of parallelism here, so a job whose
// Opt.Workers is not positive (which Reconstruct2D would resolve to
// GOMAXPROCS) is solved serially to avoid oversubscribing the pool; set
// Opt.Workers > 1 explicitly to shard inside a job too.
func ReconstructMany(ctx context.Context, jobs ...Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	var next atomic.Int64
	// Workers solve under the caller's ctx rather than the one Run derives,
	// so a panicking solve stops only its own worker and the others keep
	// claiming jobs.
	err := shard.Run(ctx, workers, workers, func(context.Context, int, int, int) error {
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			if err := ctx.Err(); err != nil {
				out[i] = JobResult{Err: err}
				continue
			}
			job := jobs[i]
			opt := job.Opt
			if opt.Workers <= 0 {
				// Jobs are the unit of parallelism here; keep
				// unset-Workers jobs serial instead of letting
				// the solver resolve non-positive values to
				// GOMAXPROCS.
				opt.Workers = 1
			}
			res, err := Reconstruct2DContext(ctx, job.Rows, job.Cols, job.Idx, job.Y, opt)
			out[i] = JobResult{Result: res, Err: err}
		}
		return nil
	})
	// Workers return nil, so err is a panic (or ctx's error). It marks the
	// job that panicked, and any left unclaimed if every worker panicked.
	if err != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}
