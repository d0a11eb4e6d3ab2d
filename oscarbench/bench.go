package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/service"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	shape    shape
	// setups is how many times an untraced run sets the server up; it
	// reports the median and measures on the last one.
	setups int
	// traceFile receives the traced run's spans as Chrome trace JSON.
	traceFile string
	out       io.Writer
}

// bench is one run in progress: its operation tally and, in the traced
// phase, the tracer that records the benchmark's own spans.
type bench struct {
	opt  options
	sh   shape
	root *obs.Span // nil outside the traced phase

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// jobRec is one job the benchmark ran, with the queries that followed it.
type jobRec struct {
	stream  uint64
	idx     int
	spec    *service.JobSpec
	view    *jobView
	rt      time.Duration
	queries []*queryRec
	trace   *obs.TraceTree // traced phase only
	failed  bool           // an output check failed
}

// queryRec is one surrogate query.
type queryRec struct {
	points int
	rt     time.Duration
	trace  *obs.TraceTree // traced phase only
}

// phase is one measured stretch of the workload on one server.
type phase struct {
	jobs      []*jobRec
	queries   []*queryRec
	wall      time.Duration
	ops       int
	alloc     uint64
	gcCycles  uint32
	heapInuse uint64
	lruHits   int64
	lruMisses int64
}

// setupResult is what set-up leaves behind: the server to measure on, the
// set-up times, the set-up jobs, and on surrogate-query the artifacts.
type setupResult struct {
	h     *harness
	times []float64 // seconds
	// jobs are the warm-up or artifact-publishing jobs of every set-up, and
	// jobWall the wall seconds they took. Their inputs do not depend on the
	// seed, which makes them the run's reference landscapes.
	jobs      []*jobRec
	jobWall   float64
	artifacts []*jobRec // the last set-up's artifacts, by index
	fits      []interp.Interpolator
}

// count records one attempted operation and, when err is set, its failure.
func (b *bench) count(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
}

// fail records a failed output check of an operation already counted.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) serverConfig(traced bool) service.Config {
	return service.Config{DisableTracing: !traced, ArtifactLRU: b.sh.lru}
}

// setup builds the server n times and returns the last one, measuring each
// set-up: server construction plus a warm-up job of the workload's own shape
// (a different one per set-up), or on surrogate-query the publication of its
// artifacts.
func (b *bench) setup(n int, traced bool) (*setupResult, error) {
	res := &setupResult{}
	for k := 0; k < n; k++ {
		if res.h != nil {
			res.h.close()
		}
		t0 := time.Now()
		res.h = startHarness(b.serverConfig(traced), b.sh.clients)
		if b.sh.artifacts > 0 {
			arts := make([]*jobRec, b.sh.artifacts)
			for a := range arts {
				rec := b.runJob(res.h, streamArtifact, a, traced)
				if rec == nil {
					res.h.close()
					return nil, fmt.Errorf("publishing artifact %d failed: %v", a, b.problems)
				}
				arts[a] = rec
			}
			res.jobs = append(res.jobs, arts...)
			res.artifacts = arts
		} else if rec := b.runJob(res.h, streamWarmup, k, traced); rec != nil {
			b.followUp(res.h, rec, traced)
			res.jobs = append(res.jobs, rec)
		}
		res.times = append(res.times, time.Since(t0).Seconds())
	}
	for _, j := range res.jobs {
		res.jobWall += j.rt.Seconds()
	}
	for _, a := range res.artifacts {
		ip, err := fitData(b.sh, a.view.Result.Data)
		if err != nil {
			res.h.close()
			return nil, err
		}
		res.fits = append(res.fits, ip)
	}
	return res, nil
}

// runJob submits job idx of a stream and in the traced phase fetches its
// server trace. It returns nil when the job failed.
func (b *bench) runJob(h *harness, stream uint64, idx int, traced bool) *jobRec {
	spec := jobSpec(b.sh, b.opt.seed, stream, idx)
	body := mustJSON(spec)
	span := b.root.Child("client.job")
	view, rt, err := h.submitJob(body)
	span.End()
	b.count(err)
	if err != nil {
		return nil
	}
	rec := &jobRec{stream: stream, idx: idx, spec: spec, view: view, rt: rt}
	if traced {
		if rec.trace, err = h.jobTrace(view.ID); err != nil {
			b.fail("job %s: %v", view.ID, err)
		}
	}
	return rec
}

// followUp queries a finished job's freshly published landscape, as an
// optimizer would: the first query refits the surrogate, the rest find it
// fitted.
func (b *bench) followUp(h *harness, rec *jobRec, traced bool) {
	ip, err := fitData(b.sh, rec.view.Result.Data)
	if err != nil {
		b.fail("job %s: fitting its landscape in process: %v", rec.view.ID, err)
		return
	}
	for k := 0; k < b.sh.followQueries; k++ {
		q := b.runQuery(h, rec.view.Result.ArtifactID, ip, rec.stream, rec.idx*b.sh.followQueries+k, traced)
		if q != nil {
			rec.queries = append(rec.queries, q)
		}
	}
}

// runQuery sends query q of a stream to an artifact and checks the answer
// against the in-process interpolator ip fitted to the same landscape.
func (b *bench) runQuery(h *harness, artifact string, ip interp.Interpolator, stream uint64, q int, traced bool) *queryRec {
	pts := queryPoints(b.sh.queryPoints, b.opt.seed, stream, q)
	body := mustJSON(queryRequest{Points: pts, Gradients: true})
	span := b.root.Child("client.query")
	v, rt, err := h.query(artifact, body, traced)
	span.End()
	b.count(err)
	if err != nil {
		return nil
	}
	cspan := b.root.Child("interp.check")
	err = checkQuery(ip, pts, v)
	cspan.End()
	if err != nil {
		b.fail("query %d on %s: %v", q, artifact, err)
	}
	return &queryRec{points: len(pts), rt: rt, trace: v.Trace}
}

// measure drives the workload as a closed loop on h for at least d, and at
// least minRounds rounds, recording what the end-to-end and per-layer
// metrics need.
func (b *bench) measure(h *harness, st *setupResult, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	h0, m0, err := h.lruCounts()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	if b.sh.artifacts > 0 {
		sched := newQuerySchedule(b.sh, b.opt.seed)
		for q := 0; time.Since(t0) < d || q < b.sh.minQueries; q++ {
			art, _ := sched.next()
			rec := b.runQuery(h, st.artifacts[art].view.Result.ArtifactID, st.fits[art], streamQuery, q, traced)
			if rec != nil {
				ph.queries = append(ph.queries, rec)
			}
			ph.ops++
		}
	} else {
		for i := 0; time.Since(t0) < d || i < b.minRounds(); i++ {
			// Lockstep: every client submits job i, then, once all of
			// them have their landscape, every client queries it. Queries
			// never overlap the jobs, so their timing does not depend on
			// which client's job finished first.
			recs := make([]*jobRec, b.sh.clients)
			b.clients(func(c int) { recs[c] = b.runJob(h, streamJob, i, traced) })
			b.clients(func(c int) {
				if recs[c] != nil {
					b.followUp(h, recs[c], traced)
				}
			})
			for _, rec := range recs {
				ph.ops++
				if rec == nil {
					continue
				}
				ph.jobs = append(ph.jobs, rec)
				ph.queries = append(ph.queries, rec.queries...)
			}
		}
	}
	ph.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.heapInuse = ms1.HeapInuse
	h1, m1, err := h.lruCounts()
	if err != nil {
		return nil, err
	}
	ph.lruHits, ph.lruMisses = h1-h0, m1-m0
	return ph, nil
}

// clients runs fn once per client, concurrently, and waits for all.
func (b *bench) clients(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < b.sh.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// minRounds is the fewest job rounds a phase runs whatever its length: the
// fleet's fixed jobs, and never fewer than three.
func (b *bench) minRounds() int {
	return max(3, b.sh.fixedJobs)
}
