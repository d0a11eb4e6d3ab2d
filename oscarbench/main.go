// Command oscarbench is the repository's benchmark. It starts oscard
// in-process (service.New behind an httptest server on loopback), drives one
// named workload against it as a closed loop of at most GOMAXPROCS clients,
// checks every answer, and prints the end-to-end metrics, or with --trace 1
// the per-layer metrics, as the last line of its output:
//
//	oscarbench --workload table1-analytic --seed 1 --seconds 20 --trace 0
//
// A traced run writes its Chrome trace under .bench_build/traces/ in the
// working directory.
//
// Workload inputs are generated from --seed alone. The server sees only
// the generated job specs and query bodies.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed every workload input is generated from")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	sh, ok := fullShapes[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: oscarbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	opt := options{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		shape:     sh,
		setups:    3,
		traceFile: fmt.Sprintf(".bench_build/traces/trace-%s-seed%d.json", *workload, *seed),
		out:       os.Stdout,
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscarbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscarbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result line. Output checks
// that fail are counted in the result; an error means the run could not be
// carried out at all.
func run(opt options) (*result, error) {
	b := &bench{opt: opt, sh: opt.shape}
	printProvenance(opt)
	runner, defs := b.runEndToEnd, endToEnd
	if opt.traced {
		runner, defs = b.runTraced, perLayer
	}
	values, err := runner()
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		layer := d.module
		if d.moves != "" {
			layer += " -> " + d.moves + " on " + d.note
		}
		fmt.Fprintf(opt.out, "metric %-34s %14.6g %-6s %s\n", d.name, values[d.name], d.unit, layer)
	}
	fmt.Fprintf(opt.out, "operations: %d attempted, %d failed\n", b.attempted, b.failed)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	return res, nil
}

// runEndToEnd sets the server up several times, measures the workload on
// the last set-up with tracing off, checks every output, and returns the
// end-to-end metrics.
func (b *bench) runEndToEnd() (map[string]float64, error) {
	st, err := b.setup(b.opt.setups, false)
	if err != nil {
		return nil, err
	}
	ph, err := b.measure(st.h, st, b.opt.seconds, false)
	st.h.close()
	if err != nil {
		return nil, err
	}
	// nrmse_mean scores the set-up jobs: their inputs are the same in every
	// run, so the metric moves only when reconstruction changes, while the
	// measured jobs' sampling patterns come from the seed. Every job is
	// checked against the NRMSE bound either way.
	nrmse := b.checkJobs(st.jobs)
	measured := b.checkJobs(ph.jobs)
	jobs, jobWall := ph.jobs, ph.wall.Seconds()
	if b.sh.artifacts > 0 {
		// surrogate-query runs no job while it measures; its job metrics
		// describe the jobs that published its artifacts.
		jobs, jobWall = st.jobs, st.jobWall
	}
	jobS := make([]float64, len(jobs))
	for i, j := range jobs {
		jobS[i] = j.rt.Seconds()
	}
	qms := queryMS(ph)
	var points, busy float64
	for _, q := range ph.queries {
		points += float64(q.points)
		busy += q.rt.Seconds()
	}
	fmt.Fprintln(b.opt.out, latencySummary("job latency", jobS, "s"))
	fmt.Fprintf(b.opt.out, "job latencies (s): %.3f\n", jobS)
	fmt.Fprintln(b.opt.out, latencySummary("query latency", qms, "ms"))
	fmt.Fprintf(b.opt.out, "set-ups (s): %.4g\n", st.times)
	fmt.Fprintf(b.opt.out, "nrmse of set-up jobs: %.4g; of measured jobs: %.4g\n", nrmse, measured)
	m := map[string]float64{
		"setup_s":      median(st.times),
		"job_p50_s":    median(jobS),
		"nrmse_mean":   mean(nrmse),
		"query_p50_ms": median(qms),
	}
	if jobWall > 0 {
		m["jobs_per_s"] = float64(len(jobs)) / jobWall
	}
	if busy > 0 {
		m["query_points_per_s"] = points / busy
	}
	if ph.ops > 0 {
		m["alloc_mb_per_op"] = float64(ph.alloc) / 1e6 / float64(ph.ops)
	}
	return m, nil
}

// runTraced measures the workload twice for half the time each: once with
// tracing off, as the end-to-end run does, and once with server tracing on
// and the benchmark recording its own spans. It returns the per-layer
// metrics, prints self times, and writes the Chrome trace.
func (b *bench) runTraced() (map[string]float64, error) {
	half := b.opt.seconds / 2
	st, err := b.setup(1, false)
	if err != nil {
		return nil, err
	}
	untraced, err := b.measure(st.h, st, half, false)
	st.h.close()
	if err != nil {
		return nil, err
	}
	setupJobs := st.jobs

	tracer := obs.NewTracer(fmt.Sprintf("oscarbench-%s-seed%d", b.opt.workload, b.opt.seed))
	tracer.MaxSpans = 1 << 18
	b.root = tracer.Start("oscarbench." + b.opt.workload)
	if st, err = b.setup(1, true); err != nil {
		return nil, err
	}
	var alone *jobLayers
	if b.sh.clients > 1 {
		// The same shape of job, run by one client, is what the lockstep
		// jobs' execution time is compared with.
		if rec := b.runJob(st.h, streamWarmup, 1, true); rec != nil {
			setupJobs = append(setupJobs, rec)
			if rec.trace != nil {
				l := reduceJob(rec.trace)
				alone = &l
			}
		}
	}
	traced, err := b.measure(st.h, st, half, true)
	st.h.close()
	if err != nil {
		return nil, err
	}
	probed, err := b.runProbes(traced)
	if err != nil {
		return nil, err
	}
	probed.alone = alone
	setupJobs = append(setupJobs, st.jobs...)
	b.checkJobs(append(append(setupJobs, untraced.jobs...), traced.jobs...))
	b.root.End()
	own := tracer.Snapshot()

	values := b.perLayerMetrics(untraced, traced, probed)
	fmt.Fprintln(b.opt.out, latencySummary("untraced latency", primaryLatency(untraced), "ms"))
	fmt.Fprintln(b.opt.out, latencySummary("traced latency", primaryLatency(traced), "ms"))
	fmt.Fprintf(b.opt.out, "dct.solve_share is computed: PlanND forward+inverse %.0f ns x iterations / cs.solve\n", probed.dctPairNS)
	b.printStress(values, untraced, traced, probed)
	b.printSelfTimes(traced, own)
	if err := b.writeChrome(traced, own); err != nil {
		return nil, fmt.Errorf("writing the Chrome trace: %w", err)
	}
	fmt.Fprintf(b.opt.out, "chrome trace: %s\n", b.opt.traceFile)
	return values, nil
}

// printProvenance prints what a result depends on besides the code: the
// seed, the machine and the toolchain.
func printProvenance(opt options) {
	p := map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds.Seconds(),
		"traced":     opt.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	line, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Fprintln(opt.out, string(line))
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return modelName(f)
}

func modelName(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
