package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/problem"
)

// jobLayers is one job's server trace reduced to the numbers the per-layer
// metrics need.
type jobLayers struct {
	jobMS, validateMS, queueMS, publishMS float64
	execMS, requested, executed, hits     float64
	solveMS, iterations                   float64
	planMS, fleetSolveMS, warmIterations  float64
}

// reduceJob sums a job's stage spans by name. cs.solve spans under a
// non-interim fleet.solve are the fleet's warm-started final solve.
func reduceJob(t *obs.TraceTree) jobLayers {
	var l jobLayers
	var visit func(n *obs.SpanNode, finalSolve bool)
	visit = func(n *obs.SpanNode, finalSolve bool) {
		d := spanMS(n)
		switch n.Name {
		case "job":
			l.jobMS += d
		case "validate":
			l.validateMS += d
		case "queue":
			l.queueMS += d
		case "publish":
			l.publishMS += d
		case "exec.batch":
			l.execMS += d
			l.requested += attrFloat(n, "points")
			l.executed += attrFloat(n, "executed")
			l.hits += attrFloat(n, "cache_hits")
		case "cs.solve":
			l.solveMS += d
			l.iterations += attrFloat(n, "iterations")
			if finalSolve {
				l.warmIterations += attrFloat(n, "iterations")
			}
		case "fleet.plan":
			l.planMS += d
		case "fleet.solve":
			l.fleetSolveMS += d
			finalSolve = n.Attrs["interim"] != true
		}
		for _, c := range n.Children {
			visit(c, finalSolve)
		}
	}
	for _, n := range t.Spans {
		visit(n, false)
	}
	return l
}

// queryLayers splits a traced query's round trip into fit, evaluation and
// everything else (HTTP, JSON, validation).
func queryLayers(q *queryRec) (fitMS, evalMS float64) {
	if q.trace == nil {
		return 0, 0
	}
	walk(q.trace.Spans, func(n *obs.SpanNode) {
		switch n.Name {
		case "query.fit":
			fitMS += spanMS(n)
		case "query.eval":
			evalMS += spanMS(n)
		}
	})
	return fitMS, evalMS
}

// probes are the per-layer measurements made by calling a module directly
// rather than through the server.
type probes struct {
	dctLineNS map[int]float64
	dctPairNS float64 // one PlanND forward plus one inverse on the job grid
	svNSPerPt float64
	// alone is a job of the workload's shape run by one client, set when
	// the workload's clients run jobs concurrently.
	alone *jobLayers
}

// dctLine times one length-n DCT line, forward and inverse alternating, and
// returns the median over batches of nanoseconds per transform.
func dctLine(n int) float64 {
	p := dct.NewPlan(n)
	src := randomVec(n, int64(n))
	dst := make([]float64, n)
	return medianNS(func() {
		p.Forward(dst, src)
		p.Inverse(src, dst)
	}, 2)
}

// dctPair times one forward plus one inverse PlanND transform on dims with
// the solver's worker budget (GOMAXPROCS, as the server's jobs use).
func dctPair(dims []int) float64 {
	p := dct.NewPlanNDWorkers(dims, 0)
	size := p.Size()
	src := randomVec(size, 1)
	dst := make([]float64, size)
	return medianNS(func() {
		p.Forward(dst, src)
		p.Inverse(src, dst)
	}, 1)
}

// medianNS runs fn in batches of at least 5 ms and returns the median over
// seven batches of nanoseconds per operation, where one call of fn is per
// operations.
func medianNS(fn func(), per int) float64 {
	fn()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) >= 5*time.Millisecond {
			break
		}
		reps *= 2
	}
	var xs []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(reps*per))
	}
	return median(xs)
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// statevectorNSPerPoint evaluates a job's sampled points on the statevector
// backend alone, outside the server, with every core, and returns the
// nanoseconds per point.
func (b *bench) statevectorNSPerPoint(rec *jobRec) (float64, error) {
	spec := rec.spec
	p, err := problem.Random3RegularMaxCut(spec.Problem.N, rand.New(rand.NewSource(spec.Problem.Seed)))
	if err != nil {
		return 0, err
	}
	a, err := ansatz.QAOA(p.Graph, 1)
	if err != nil {
		return 0, err
	}
	sv, err := backend.NewStateVector(p, a)
	if err != nil {
		return 0, err
	}
	g, err := grid(b.sh)
	if err != nil {
		return 0, err
	}
	idx, err := core.SampleGrid(g, spec.Options.SamplingFraction, spec.Options.Seed, false)
	if err != nil {
		return 0, err
	}
	pts := g.Points(idx)
	span := b.root.Child("backend.statevector")
	t0 := time.Now()
	_, err = sv.SetWorkers(0).EvaluateBatch(context.Background(), pts)
	d := time.Since(t0)
	span.SetAttr("points", len(pts))
	span.End()
	return float64(d.Nanoseconds()) / float64(len(pts)), err
}

// runProbes makes the direct-call measurements of the traced run.
func (b *bench) runProbes(traced *phase) (*probes, error) {
	pr := &probes{dctLineNS: map[int]float64{}}
	span := b.root.Child("dct.line")
	for _, n := range []int{16, 32, 50, 100} {
		pr.dctLineNS[n] = dctLine(n)
	}
	span.End()
	span = b.root.Child("dct.plan_nd")
	pr.dctPairNS = dctPair([]int{b.sh.betaN, b.sh.gammaN})
	span.End()
	if b.sh.backend == "statevector" && len(traced.jobs) > 0 {
		ns, err := b.statevectorNSPerPoint(traced.jobs[0])
		if err != nil {
			return nil, fmt.Errorf("statevector probe: %w", err)
		}
		pr.svNSPerPt = ns
	}
	return pr, nil
}

// perLayerMetrics computes every per-layer metric from the untraced phase
// (the end-to-end configuration) and the traced phase.
func (b *bench) perLayerMetrics(untraced, traced *phase, pr *probes) map[string]float64 {
	// A layer the workload does not exercise is left out of m and reads 0.
	m := map[string]float64{}
	var ls []jobLayers
	var httpMS []float64
	for _, j := range traced.jobs {
		if j.trace != nil {
			l := reduceJob(j.trace)
			ls = append(ls, l)
			httpMS = append(httpMS, ms(j.rt)-l.jobMS)
		}
	}
	col := func(f func(jobLayers) float64) []float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = f(l)
		}
		return xs
	}
	m["validate.ms"] = median(col(func(l jobLayers) float64 { return l.validateMS }))
	m["queue.ms"] = median(col(func(l jobLayers) float64 { return l.queueMS }))
	m["publish.ms"] = median(col(func(l jobLayers) float64 { return l.publishMS }))
	m["service.http_ms"] = median(httpMS)

	execMS := median(col(func(l jobLayers) float64 { return l.execMS }))
	m["exec.batch.ms"] = execMS
	if pr.alone != nil && pr.alone.execMS > 0 {
		m["exec.contention_ratio"] = execMS / (pr.alone.execMS * float64(b.sh.clients))
	} else if execMS > 0 {
		m["exec.contention_ratio"] = 1 // one client: every job runs alone
	}
	m["exec.points_requested"] = mean(col(func(l jobLayers) float64 { return l.requested }))
	executed := col(func(l jobLayers) float64 { return l.executed })
	m["exec.points_executed"] = mean(executed)
	m["exec.cache_hits"] = mean(col(func(l jobLayers) float64 { return l.hits }))
	if total := sum(executed); total > 0 {
		// Distinct points: each job index's samples once, however many
		// clients submitted it.
		distinct := map[int]int{}
		for _, j := range traced.jobs {
			distinct[j.idx] = j.view.Result.Samples
		}
		var d float64
		for _, s := range distinct {
			d += float64(s)
		}
		m["exec.useful_ratio"] = d / total
	}
	m["backend.statevector.ns_per_point"] = pr.svNSPerPt

	solve := col(func(l jobLayers) float64 { return l.solveMS })
	iters := col(func(l jobLayers) float64 { return l.iterations })
	m["cs.solve.ms"] = median(solve)
	m["cs.iterations"] = median(iters)
	if it := sum(iters); it > 0 {
		m["cs.ns_per_iteration"] = sum(solve) * 1e6 / it
		// Two transforms per iteration: the inverse of A and the forward
		// of its adjoint.
		m["dct.solve_share"] = pr.dctPairNS * it / (sum(solve) * 1e6)
	}
	for _, n := range []int{16, 32, 50, 100} {
		m[fmt.Sprintf("dct.line_ns.len%d", n)] = pr.dctLineNS[n]
	}

	var fits, codec []float64
	var evalMS, points float64
	for _, q := range traced.queries {
		f, e := queryLayers(q)
		fits = append(fits, f)
		codec = append(codec, ms(q.rt)-f-e)
		evalMS += e
		points += float64(q.points)
	}
	m["query.fit.ms"] = mean(fits)
	m["query.codec_ms"] = mean(codec)
	if points > 0 {
		m["query.eval.ns_per_point"] = evalMS * 1e6 / points
	}
	if n := untraced.lruHits + untraced.lruMisses; n > 0 {
		m["artifact.lru_hit_ratio"] = float64(untraced.lruHits) / float64(n)
	}
	if qs := queryMS(untraced); len(qs) >= 1000 {
		m["query.p99_ms"] = quantile(qs, 0.99)
	}

	if fixed := traced.jobs[:min(b.sh.fixedJobs, len(traced.jobs))]; b.sh.fleet && len(fixed) > 0 {
		m["fleet.plan.ms"] = median(col(func(l jobLayers) float64 { return l.planMS }))
		m["fleet.solve.ms"] = median(col(func(l jobLayers) float64 { return l.fleetSolveMS }))
		var solves, warm, batches, retries, makespan float64
		for _, j := range fixed {
			f := j.view.Result.Fleet
			solves += float64(f.Solves)
			batches += float64(f.Batches)
			retries += float64(f.Retries)
			makespan += f.Makespan
			if j.trace != nil {
				warm += reduceJob(j.trace).warmIterations
			}
		}
		k := float64(len(fixed))
		m["fleet.solves"] = solves / k
		m["fleet.warm_iterations"] = warm / k
		m["fleet.batches"] = batches
		m["fleet.retries"] = retries
		m["fleet.virtual_makespan_s"] = makespan / k
	}

	if base := median(primaryLatency(untraced)); base > 0 {
		m["obs.trace_overhead"] = median(primaryLatency(traced))/base - 1
	}
	if untraced.ops > 0 {
		m["runtime.gc_cycles_per_op"] = float64(untraced.gcCycles) / float64(untraced.ops)
	}
	m["runtime.heap_inuse_mb"] = float64(untraced.heapInuse) / 1e6
	return m
}

// printStress confirms that the workload stresses the layer it was chosen
// for, by the share of its operation that layer takes.
func (b *bench) printStress(m map[string]float64, untraced, traced *phase, pr *probes) {
	out := b.opt.out
	switch {
	case b.sh.fleet:
		count := func(ph *phase) (batches, retries int) {
			for _, j := range ph.jobs[:min(b.sh.fixedJobs, len(ph.jobs))] {
				batches += j.view.Result.Fleet.Batches
				retries += j.view.Result.Fleet.Retries
			}
			return batches, retries
		}
		ub, ur := count(untraced)
		tb, tr := count(traced)
		fmt.Fprintf(out, "stress: the first %d fleet jobs of each phase ran %d/%d batches and %d/%d retries (repeat exactly: %v)\n",
			b.sh.fixedJobs, ub, tb, ur, tr, ub == tb && ur == tr)
	case b.sh.artifacts > 0:
		eval := m["query.eval.ns_per_point"] * float64(b.sh.queryPoints) / 1e6
		fmt.Fprintf(out, "stress: a %.3f ms mean query round trip is query.fit %.3f + query.eval %.3f + query.codec %.3f ms\n",
			mean(primaryLatency(traced)), m["query.fit.ms"], eval, m["query.codec_ms"])
	case pr.alone != nil && pr.alone.jobMS > 0:
		fmt.Fprintf(out, "stress: exec.batch is %.1f%% of a job run alone (%.0f of %.0f ms)\n",
			100*pr.alone.execMS/pr.alone.jobMS, pr.alone.execMS, pr.alone.jobMS)
	default:
		var solve, job float64
		for _, j := range traced.jobs {
			if j.trace != nil {
				l := reduceJob(j.trace)
				solve += l.solveMS
				job += l.jobMS
			}
		}
		if job > 0 {
			fmt.Fprintf(out, "stress: cs.solve is %.1f%% of the server's job time\n", 100*solve/job)
		}
	}
}

// primaryLatency is the latency of the workload's own operation: the job,
// or on surrogate-query the query.
func primaryLatency(ph *phase) []float64 {
	if len(ph.jobs) == 0 {
		return queryMS(ph)
	}
	xs := make([]float64, len(ph.jobs))
	for i, j := range ph.jobs {
		xs[i] = ms(j.rt)
	}
	return xs
}

func queryMS(ph *phase) []float64 {
	xs := make([]float64, len(ph.queries))
	for i, q := range ph.queries {
		xs[i] = ms(q.rt)
	}
	return xs
}

// printSelfTimes prints, per span name, the self time per operation of the
// server's job and query traces and of the benchmark's own spans.
func (b *bench) printSelfTimes(traced *phase, own *obs.TraceTree) {
	var jobs, queries []*obs.TraceTree
	for _, j := range traced.jobs {
		jobs = append(jobs, j.trace)
	}
	for _, q := range traced.queries {
		queries = append(queries, q.trace)
	}
	report := func(label string, trees []*obs.TraceTree, per int) {
		if per == 0 {
			return
		}
		self := selfTimes(trees)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(b.opt.out, "self time per %s (ms), %d traced:\n", label, per)
		for _, n := range names {
			fmt.Fprintf(b.opt.out, "  %-24s %10.3f\n", n, self[n]/float64(per))
		}
	}
	report("job, server spans", jobs, len(jobs))
	report("query, server spans", queries, len(queries))
	report("run, benchmark spans", []*obs.TraceTree{own}, 1)
}

// writeChrome writes the benchmark's own spans and every server trace of the
// traced phase as one Chrome/Perfetto trace file. Both sides share the
// process clock, so client and server spans line up.
func (b *bench) writeChrome(traced *phase, own *obs.TraceTree) error {
	all := &obs.TraceTree{TraceID: own.TraceID}
	add := func(t *obs.TraceTree) {
		if t != nil {
			all.Spans = append(all.Spans, t.Spans...)
			all.SpanCount += t.SpanCount
		}
	}
	add(own)
	for _, j := range traced.jobs {
		add(j.trace)
	}
	for _, q := range traced.queries {
		add(q.trace)
	}
	if err := os.MkdirAll(filepath.Dir(b.opt.traceFile), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(obs.ChromeEvents(all))
	if err != nil {
		return err
	}
	return os.WriteFile(b.opt.traceFile, data, 0o644)
}
