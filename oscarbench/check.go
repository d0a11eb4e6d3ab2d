package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/interp"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/service"
)

// nrmseBound is the largest NRMSE against the analytic ground truth a job's
// landscape may have. It flags a broken reconstruction, not a small loss of
// accuracy; nrmse_mean tracks the latter.
const nrmseBound = 0.2

// queryTol is how far a served query value or gradient may sit from the
// in-process interpolator's (relative to max(1, |value|)).
const queryTol = 1e-12

// grid builds the depth-1 QAOA grid a job of this shape runs on, the way
// the server builds it from the beta_n/gamma_n shorthand.
func grid(sh shape) (*landscape.Grid, error) {
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(1)
	return landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: bMin, Max: bMax, N: sh.betaN},
		landscape.Axis{Name: "gamma", Min: gMin, Max: gMax, N: sh.gammaN},
	)
}

// fitData fits the surrogate the server serves for a landscape of this
// shape.
func fitData(sh shape, data []float64) (interp.Interpolator, error) {
	g, err := grid(sh)
	if err != nil {
		return nil, err
	}
	axes := make([][]float64, len(g.Axes))
	for i, ax := range g.Axes {
		axes[i] = ax.Values()
	}
	return interp.Fit(axes, data)
}

// checkQuery compares a served query answer with the in-process
// interpolator on the same points.
func checkQuery(ip interp.Interpolator, pts [][]float64, v *queryView) error {
	if v.Count != len(pts) || len(v.Values) != len(pts) || len(v.Gradients) != len(pts) {
		return fmt.Errorf("answered %d values and %d gradients for %d points", len(v.Values), len(v.Gradients), len(pts))
	}
	want := make([]float64, len(pts))
	if err := ip.AtPoints(want, pts); err != nil {
		return err
	}
	grads := make([][]float64, len(pts))
	for i := range grads {
		grads[i] = make([]float64, len(pts[i]))
	}
	if err := ip.GradientAtPoints(grads, pts); err != nil {
		return err
	}
	for i := range pts {
		if !near(v.Values[i], want[i]) {
			return fmt.Errorf("point %d: served %v, in-process %v", i, v.Values[i], want[i])
		}
		if len(v.Gradients[i]) != len(grads[i]) {
			return fmt.Errorf("point %d: gradient has %d components, want %d", i, len(v.Gradients[i]), len(grads[i]))
		}
		for k := range grads[i] {
			if !near(v.Gradients[i][k], grads[i][k]) {
				return fmt.Errorf("point %d: served gradient %v, in-process %v", i, v.Gradients[i], grads[i])
			}
		}
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= queryTol*math.Max(1, math.Abs(want))
}

// groundTruth evaluates a job's whole grid with the closed-form depth-1
// QAOA evaluator, on the problem instance the server builds from the spec.
func groundTruth(sh shape, spec *service.JobSpec) ([]float64, error) {
	p, err := problem.Random3RegularMaxCut(spec.Problem.N, rand.New(rand.NewSource(spec.Problem.Seed)))
	if err != nil {
		return nil, err
	}
	an, err := backend.NewAnalyticQAOA(p, noise.Ideal())
	if err != nil {
		return nil, err
	}
	g, err := grid(sh)
	if err != nil {
		return nil, err
	}
	return an.EvaluateBatch(context.Background(), g.AllPoints())
}

// checkJobs scores every job's landscape against the ground truth, checks
// fleet accounting, and returns the NRMSE of each job in order. A job that
// fails a check is marked and counted as failed.
func (b *bench) checkJobs(recs []*jobRec) []float64 {
	span := b.root.Child("check.jobs")
	defer span.End()
	truths := map[int64][]float64{}
	out := make([]float64, len(recs))
	for i, rec := range recs {
		truth, ok := truths[rec.spec.Problem.Seed]
		if !ok {
			var err error
			if truth, err = groundTruth(b.sh, rec.spec); err != nil {
				b.markFailed(rec, "ground truth: %v", err)
				continue
			}
			truths[rec.spec.Problem.Seed] = truth
		}
		res := rec.view.Result
		nrmse, err := landscape.NRMSE(truth, res.Data)
		switch {
		case err != nil:
			b.markFailed(rec, "NRMSE: %v", err)
		case !(nrmse <= nrmseBound):
			b.markFailed(rec, "NRMSE %.4g above the bound %g", nrmse, nrmseBound)
		}
		out[i] = nrmse
		if rec.spec.Fleet != nil {
			if err := checkFleet(b.sh, res); err != nil {
				b.markFailed(rec, "fleet accounting: %v", err)
			}
		}
	}
	return out
}

func (b *bench) markFailed(rec *jobRec, format string, args ...any) {
	if !rec.failed {
		rec.failed = true
		b.fail("job %s (%s): %s", rec.view.ID, fmt.Sprint(rec.spec.Problem), fmt.Sprintf(format, args...))
	}
}

// checkFleet checks a finished fleet job's accounting: a positive virtual
// makespan, every kept sample attributed to a device or the cache, the eager
// cut keeping at least its fraction of the planned samples, and one interim
// solve per threshold before the final solve.
func checkFleet(sh shape, res *jobResult) error {
	f := res.Fleet
	if f == nil {
		return fmt.Errorf("no fleet summary")
	}
	if !(f.Makespan > 0) {
		return fmt.Errorf("makespan %v", f.Makespan)
	}
	if f.Batches < 1 {
		return fmt.Errorf("%d batches", f.Batches)
	}
	served := f.CacheServed
	for _, n := range f.PerDevice {
		served += n
	}
	if served != res.Samples {
		return fmt.Errorf("devices and cache served %d samples, result has %d", served, res.Samples)
	}
	planned := int(sh.fraction * float64(sh.betaN*sh.gammaN))
	if float64(res.Samples) < fleetKeepFraction*float64(planned) || res.Samples > planned {
		return fmt.Errorf("kept %d of %d planned samples at keep fraction %g", res.Samples, planned, fleetKeepFraction)
	}
	if f.Solves != len(fleetThresholds)+1 {
		return fmt.Errorf("%d solves, want %d", f.Solves, len(fleetThresholds)+1)
	}
	return nil
}
