package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 900, true}, {999, 900, true},
		{1000, 990, true}, {9999, 990, true}, {10000, 999, true},
	} {
		got, ok := tailPermille(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if s := latencySummary("x", make([]float64, 50), "ms"); !strings.Contains(s, "no high percentile") {
		t.Errorf("50 samples reported a high percentile: %s", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// inputs renders every input a workload sends for a seed: the first job
// specs of each stream, their follow-up queries, and surrogate queries with
// their artifact schedule.
func inputs(name string, seed int64) []byte {
	sh := fullShapes[name]
	var buf bytes.Buffer
	for _, stream := range []uint64{streamJob, streamWarmup, streamArtifact} {
		for i := 0; i < 4; i++ {
			buf.Write(mustJSON(jobSpec(sh, seed, stream, i)))
			buf.Write(mustJSON(queryRequest{Points: queryPoints(sh.queryPoints, seed, stream, i), Gradients: true}))
		}
	}
	if sh.artifacts > 0 {
		sched := newQuerySchedule(sh, seed)
		for q := 0; q < 64; q++ {
			art, refit := sched.next()
			buf.Write(mustJSON([]any{art, refit}))
			buf.Write(mustJSON(queryRequest{Points: queryPoints(sh.queryPoints, seed, streamQuery, q), Gradients: true}))
		}
	}
	return buf.Bytes()
}

func TestInputsComeFromTheSeedAlone(t *testing.T) {
	for _, name := range workloadNames {
		a, b := inputs(name, 7), inputs(name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, inputs(name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
	for _, stream := range []uint64{streamWarmup, streamArtifact} {
		a := mustJSON(jobSpec(fullShapes["surrogate-query"], 7, stream, 0))
		if !bytes.Equal(a, mustJSON(jobSpec(fullShapes["surrogate-query"], 8, stream, 0))) {
			t.Errorf("set-up stream %d depends on the seed", stream)
		}
	}
	// Jobs of one stream never share a problem instance, so the server's
	// execution cache cannot serve one job from another.
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		s := jobSpec(fullShapes["table1-analytic"], 1, streamJob, i).Problem.Seed
		if seen[s] {
			t.Fatalf("job %d repeats problem seed %d", i, s)
		}
		seen[s] = true
	}
}

func TestQueryScheduleRefitsAFixedShare(t *testing.T) {
	sh := fullShapes["surrogate-query"]
	sched := newQuerySchedule(sh, 3)
	const n = 800
	refits := 0
	for q := 0; q < n; q++ {
		before := append([]int(nil), sched.resident...)
		art, refit := sched.next()
		if refit == contains(before, art) {
			t.Fatalf("query %d: artifact %d resident=%v but refit=%v", q, art, before, refit)
		}
		if refit {
			refits++
		}
	}
	if refits != n/sh.missEvery {
		t.Errorf("%d refits in %d queries, want %d", refits, n, n/sh.missEvery)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	n := &obs.SpanNode{Name: "job", Start: at(0), End: at(100), Children: []*obs.SpanNode{
		{Name: "a", Start: at(10), End: at(30)},
		{Name: "b", Start: at(20), End: at(40)},  // overlaps a
		{Name: "c", Start: at(90), End: at(120)}, // runs past the parent
	}}
	if got := selfMS(n); got != 60 {
		t.Errorf("self time %v ms, want 60", got)
	}
}

// TestEveryWorkloadTiny runs each workload end to end, untraced and traced,
// at a tiny size, so a broken harness fails here in seconds.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			opt := options{
				workload:  name,
				seed:      5,
				seconds:   200 * time.Millisecond,
				traced:    traced,
				shape:     tinyShapes[name],
				setups:    2,
				traceFile: filepath.Join(t.TempDir(), "trace.json"),
				out:       &out,
			}
			res, err := run(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, d.name, m)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(opt.traceFile); err != nil {
					t.Errorf("%s: no Chrome trace: %v", name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric catalogue
// and the workloads this program runs.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
