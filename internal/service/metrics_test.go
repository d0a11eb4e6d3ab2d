package service

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promFamily is one parsed metric family: its declared type and the samples
// (full series name with labels -> value) that follow it.
type promFamily struct {
	typ     string
	help    bool
	samples map[string]float64
	order   int
}

// parseProm is a minimal Prometheus text-format (0.0.4) parser. It enforces
// the structural invariants the exposition format demands: HELP/TYPE precede
// samples, every sample belongs to a declared family (histogram suffixes
// _bucket/_sum/_count fold into their base family), and values parse as
// floats.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	order := 0
	get := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{samples: map[string]float64{}, order: order}
			order++
			fams[name] = f
		}
		return f
	}
	baseName := func(series string) string {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return base
				}
			}
		}
		return name
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			get(parts[0]).help = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			f := get(parts[0])
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			f.typ = parts[1]
		case strings.HasPrefix(line, "#"):
			// comment
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			series, val := line[:i], line[i+1:]
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			base := baseName(series)
			f, ok := fams[base]
			if !ok || f.typ == "" || !f.help {
				t.Fatalf("line %d: sample %q before its # HELP/# TYPE", ln+1, series)
			}
			if _, dup := f.samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			f.samples[series] = v
		}
	}
	return fams
}

func scrape(t *testing.T, s *Server) map[string]*promFamily {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	return parseProm(t, rec.Body.String())
}

// TestMetricsFamiliesPresentTypedSorted runs a job, scrapes, and checks every
// exported family is present, typed, helped, and emitted in sorted order.
func TestMetricsFamiliesPresentTypedSorted(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", fleetJob("")); rec.Code != 200 {
		t.Fatalf("job: %d %v", rec.Code, out)
	}
	fams := scrape(t, s)

	want := map[string]string{
		"oscard_build_info":                    "gauge",
		"oscard_uptime_seconds":                "gauge",
		"oscard_jobs":                          "gauge",
		"oscard_panics_total":                  "counter",
		"oscard_trace_dropped_spans_total":     "counter",
		"oscard_cache_hits_total":              "counter",
		"oscard_cache_misses_total":            "counter",
		"oscard_cache_entries":                 "gauge",
		"oscard_cache_configs":                 "gauge",
		"oscard_artifacts":                     "gauge",
		"oscard_artifact_lru_entries":          "gauge",
		"oscard_artifacts_published_total":     "counter",
		"oscard_artifact_lru_hits_total":       "counter",
		"oscard_artifact_lru_misses_total":     "counter",
		"oscard_artifact_evictions_total":      "counter",
		"oscard_artifact_query_points_total":   "counter",
		"oscard_artifact_load_errors_total":    "counter",
		"oscard_artifact_publish_errors_total": "counter",
		"oscard_fleet_retries_total":           "counter",
		"oscard_fleet_quarantine_events_total": "counter",
		"oscard_fleet_batch_size":              "gauge",
		"oscard_fleet_samples_done":            "gauge",
		"oscard_fleet_samples_total":           "gauge",
		"oscard_fleet_solves":                  "gauge",
		"oscard_fleet_retries":                 "gauge",
		"oscard_fleet_quarantine_events":       "gauge",
		"oscard_fleet_tail_prob":               "gauge",
		"oscard_fleet_fail_rate":               "gauge",
		"oscard_fleet_quarantined":             "gauge",
		"oscard_stage_duration_seconds":        "histogram",
		"oscard_fleet_virtual_seconds":         "histogram",
	}
	for name, typ := range want {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.typ != typ {
			t.Errorf("family %s typed %q, want %q", name, f.typ, typ)
		}
	}

	// Families must arrive in sorted name order so scrapes diff cleanly.
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return fams[names[i]].order < fams[names[j]].order })
	if !sort.StringsAreSorted(names) {
		t.Fatalf("families not in sorted order: %v", names)
	}

	// build_info is a constant-1 gauge with both labels.
	for series, v := range fams["oscard_build_info"].samples {
		if v != 1 || !strings.Contains(series, "go_version=") || !strings.Contains(series, "revision=") {
			t.Fatalf("build info %q = %v", series, v)
		}
	}

	// A finished fleet job must have fed the stage histograms.
	stage := fams["oscard_stage_duration_seconds"]
	for _, name := range []string{"validate", "queue", "run", "fleet.batch", "publish"} {
		series := `oscard_stage_duration_seconds_count{stage="` + name + `"}`
		if stage.samples[series] < 1 {
			t.Errorf("stage %q never observed: %v", name, stage.samples[series])
		}
	}
	virt := fams["oscard_fleet_virtual_seconds"]
	if virt.samples[`oscard_fleet_virtual_seconds_count{stage="fleet.plan"}`] < 1 {
		t.Error("fleet.plan virtual histogram never observed")
	}
}

// TestMetricsHistogramInvariants checks bucket cumulativity: counts rise with
// le, the +Inf bucket equals _count, and _sum is non-negative.
func TestMetricsHistogramInvariants(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job: %d %v", rec.Code, out)
	}
	fams := scrape(t, s)
	stage := fams["oscard_stage_duration_seconds"]
	if stage == nil {
		t.Fatal("no stage histogram")
	}

	// Group buckets by stage label.
	type hist struct {
		buckets map[float64]float64
		count   float64
		sum     float64
	}
	hists := map[string]*hist{}
	get := func(label string) *hist {
		h := hists[label]
		if h == nil {
			h = &hist{buckets: map[float64]float64{}}
			hists[label] = h
		}
		return h
	}
	for series, v := range stage.samples {
		stageLabel := series[strings.Index(series, `stage="`)+7:]
		stageLabel = stageLabel[:strings.IndexByte(stageLabel, '"')]
		switch {
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_bucket"):
			leStr := series[strings.Index(series, `le="`)+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
			get(stageLabel).buckets[le] = v
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_count"):
			get(stageLabel).count = v
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_sum"):
			get(stageLabel).sum = v
		}
	}
	if len(hists) == 0 {
		t.Fatal("no stage series parsed")
	}
	for label, h := range hists {
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			if h.buckets[le] < prev {
				t.Fatalf("stage %q: bucket le=%g count %g < previous %g", label, le, h.buckets[le], prev)
			}
			prev = h.buckets[le]
		}
		inf := h.buckets[les[len(les)-1]]
		if les[len(les)-1] != inf && h.buckets[les[len(les)-1]] != h.count {
			t.Fatalf("stage %q: +Inf bucket %g != count %g", label, h.buckets[les[len(les)-1]], h.count)
		}
		if h.sum < 0 {
			t.Fatalf("stage %q: negative sum %g", label, h.sum)
		}
	}
}

// TestMetricsMonotoneAcrossJobs scrapes after one job and again after a
// second, asserting every counter-typed series is monotone non-decreasing
// and the job/stage counts actually advanced.
func TestMetricsMonotoneAcrossJobs(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job 1: %d %v", rec.Code, out)
	}
	first := scrape(t, s)
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job 2: %d %v", rec.Code, out)
	}
	second := scrape(t, s)

	for name, f1 := range first {
		if f1.typ != "counter" && f1.typ != "histogram" {
			continue
		}
		f2, ok := second[name]
		if !ok {
			t.Errorf("family %s vanished on the second scrape", name)
			continue
		}
		for series, v1 := range f1.samples {
			if v2, ok := f2.samples[series]; ok && v2 < v1 {
				t.Errorf("series %s went backwards: %g -> %g", series, v1, v2)
			}
		}
	}

	if got := second["oscard_jobs"].samples[`oscard_jobs{state="done"}`]; got != 2 {
		t.Fatalf("done jobs %g, want 2", got)
	}
	c1 := first["oscard_stage_duration_seconds"].samples[`oscard_stage_duration_seconds_count{stage="run"}`]
	c2 := second["oscard_stage_duration_seconds"].samples[`oscard_stage_duration_seconds_count{stage="run"}`]
	if c2 != c1+1 {
		t.Fatalf("run stage count %g -> %g, want +1", c1, c2)
	}
}

// TestStatsAndMetricsAgree pins the shared snapshot: after a fleet job under
// faults, a plain job on the same cache and artifact queries that hit, miss
// and evict, /stats and /metrics report the same value for every number they
// both carry.
func TestStatsAndMetricsAgree(t *testing.T) {
	s := newTestServer(t, Config{ArtifactLRU: 1})
	chaos := strings.Replace(fleetJob(""), `"devices"`, `"seed": 7, "risk_aware": true, "devices"`, 1)
	chaos = strings.Replace(chaos, `"exec": 12}`,
		`"exec": 12, "scenario": {"kind": "dropout", "start": 0, "duration": 1000000000}}`, 1)
	a := submitArtifactJob(t, s, chaos)
	b := submitArtifactJob(t, s, smallJob())
	pts := [][]float64{{0.1, 0.2}, {0.3, -0.4}, {-0.5, 0.6}}
	for _, id := range []string{a, b, a, a} {
		if code, _, _ := postQuery(t, s, id, pts, false); code != 200 {
			t.Fatalf("query %s: %d", id, code)
		}
	}

	_, stats := do(t, s, "GET", "/stats", "")
	fams := scrape(t, s)
	metric := func(family, series string) float64 {
		t.Helper()
		f := fams[family]
		if f == nil {
			t.Fatalf("/metrics has no family %s", family)
		}
		v, ok := f.samples[series]
		if !ok {
			t.Fatalf("/metrics family %s has no series %s", family, series)
		}
		return v
	}
	block := func(name string) map[string]any {
		t.Helper()
		m, _ := stats[name].(map[string]any)
		if m == nil {
			t.Fatalf("/stats has no %s block: %v", name, stats)
		}
		return m
	}
	fleet, cache, arts, jobs := block("fleet"), block("cache"), block("artifacts"), block("jobs")
	same := func(what string, stat any, family string) {
		t.Helper()
		v, ok := stat.(float64)
		if !ok {
			t.Fatalf("/stats %s = %v, want a number", what, stat)
		}
		if m := metric(family, family); m != v {
			t.Errorf("%s: /stats %g, /metrics %s %g", what, v, family, m)
		}
	}
	same("panics", stats["panics"], "oscard_panics_total")
	same("fleet retries", fleet["retries_total"], "oscard_fleet_retries_total")
	same("fleet quarantines", fleet["quarantine_events_total"], "oscard_fleet_quarantine_events_total")
	same("cache hits", cache["total_hits"], "oscard_cache_hits_total")
	same("cache misses", cache["total_misses"], "oscard_cache_misses_total")
	same("cache entries", cache["total_len"], "oscard_cache_entries")
	same("cache configs", float64(len(cache["configs"].([]any))), "oscard_cache_configs")
	same("artifacts", arts["count"], "oscard_artifacts")
	same("artifact LRU entries", arts["lru_entries"], "oscard_artifact_lru_entries")
	same("artifacts published", arts["published"], "oscard_artifacts_published_total")
	same("artifact evictions", arts["evictions"], "oscard_artifact_evictions_total")
	same("artifact LRU hits", arts["lru_hits"], "oscard_artifact_lru_hits_total")
	same("artifact LRU misses", arts["lru_misses"], "oscard_artifact_lru_misses_total")
	same("artifact query points", arts["query_points"], "oscard_artifact_query_points_total")
	same("artifact load errors", arts["load_errors"], "oscard_artifact_load_errors_total")
	same("artifact publish errors", arts["publish_errors"], "oscard_artifact_publish_errors_total")
	byState, _ := jobs["by_state"].(map[string]any)
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		v, _ := byState[string(st)].(float64) // /stats omits states with no jobs
		if m := metric("oscard_jobs", `oscard_jobs{state="`+string(st)+`"}`); m != v {
			t.Errorf("jobs %s: /stats %g, /metrics %g", st, v, m)
		}
	}

	// The run must have moved the counters, or agreeing at zero proves
	// nothing.
	for what, v := range map[string]any{
		"fleet retries": fleet["retries_total"], "fleet quarantines": fleet["quarantine_events_total"],
		"cache hits": cache["total_hits"], "artifact evictions": arts["evictions"],
		"artifact LRU hits": arts["lru_hits"], "jobs done": byState[string(StateDone)],
	} {
		if v == 0.0 {
			t.Errorf("%s stayed 0", what)
		}
	}
}
