package service

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// handleMetrics exports server state in the Prometheus text exposition
// format (version 0.0.4) — hand-rolled, no client library dependency. It
// covers job states, the execution-cache counters, server-wide fleet
// retry/quarantine totals, per-job gauges of running fleet jobs (learned
// batch sizes, retry/quarantine progress, per-device tail estimates), build
// information, and the per-stage latency histograms fed by span completions.
// Families are emitted in sorted name order, every scrape, so diffs between
// scrapes — and smoke-test greps — are stable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type fleetRow struct {
		job      string
		progress FleetProgress
		sch      *fleet.Scheduler
		states   []fleet.DeviceState
	}
	s.mu.Lock()
	counts := map[JobState]int{}
	var fleets []fleetRow
	for _, id := range s.order {
		j := s.jobs[id]
		counts[j.state]++
		if j.progress != nil && j.state == StateRunning {
			fleets = append(fleets, fleetRow{job: id, progress: *j.progress, sch: j.fleet})
		}
	}
	var hits, misses int64
	entries := 0
	configs := len(s.caches)
	for _, c := range s.caches {
		hits += c.Hits()
		misses += c.Misses()
		entries += c.Len()
	}
	s.mu.Unlock()
	// Snapshot device states outside the server lock: States takes the
	// scheduler's own mutex, which is free while planning is done and
	// streaming runs.
	for i := range fleets {
		if fleets[i].sch != nil {
			fleets[i].states = fleets[i].sch.States()
		}
	}

	// Each family renders into its own block; all blocks — these and the
	// histogram registry's — merge and sort by family name before writing.
	var fams []obs.PromFamily
	family := func(name, typ, help string, body func(b *strings.Builder)) {
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		body(&b)
		fams = append(fams, obs.PromFamily{Name: name, Text: b.String()})
	}
	gauge := func(name, help string, body func(b *strings.Builder)) {
		family(name, "gauge", help, body)
	}
	counter := func(name, help string, body func(b *strings.Builder)) {
		family(name, "counter", help, body)
	}

	gauge("oscard_build_info", "Build information; value is always 1.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_build_info{go_version=%q,revision=%q} 1\n",
			obs.EscapeLabel(runtime.Version()), obs.EscapeLabel(buildRevision()))
	})
	gauge("oscard_uptime_seconds", "Seconds since the server started.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_uptime_seconds %g\n", time.Since(s.start).Seconds())
	})
	gauge("oscard_jobs", "Jobs currently tracked, by state.", func(b *strings.Builder) {
		for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
			fmt.Fprintf(b, "oscard_jobs{state=%q} %d\n", st, counts[st])
		}
	})
	counter("oscard_panics_total", "Recovered internal panics.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_panics_total %d\n", s.panics.Load())
	})
	counter("oscard_trace_dropped_spans_total", "Span starts rejected by per-job span caps, over finished jobs.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_trace_dropped_spans_total %d\n", s.droppedSpans.Load())
	})

	counter("oscard_cache_hits_total", "Execution-cache lookups served without running a circuit.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_cache_hits_total %d\n", hits)
	})
	counter("oscard_cache_misses_total", "Execution-cache lookups that fell through to execution.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_cache_misses_total %d\n", misses)
	})
	gauge("oscard_cache_entries", "Memoized circuit executions across all device configurations.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_cache_entries %d\n", entries)
	})
	gauge("oscard_cache_configs", "Distinct device configurations holding a cache.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_cache_configs %d\n", configs)
	})

	arts, fitted := s.artifacts.len()
	gauge("oscard_artifacts", "Landscape artifacts available for serving.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifacts %d\n", arts)
	})
	gauge("oscard_artifact_lru_entries", "Fitted interpolators resident in the artifact LRU.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_lru_entries %d\n", fitted)
	})
	counter("oscard_artifacts_published_total", "Landscape artifacts published by finished jobs this process.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifacts_published_total %d\n", s.artifacts.published.Load())
	})
	counter("oscard_artifact_lru_hits_total", "Artifact queries served by an already-fitted interpolator.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_lru_hits_total %d\n", s.artifacts.lruHits.Load())
	})
	counter("oscard_artifact_lru_misses_total", "Artifact queries that had to fit (or refit) the interpolator.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_lru_misses_total %d\n", s.artifacts.lruMisses.Load())
	})
	counter("oscard_artifact_evictions_total", "Fitted interpolators evicted from the artifact LRU.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_evictions_total %d\n", s.artifacts.evictions.Load())
	})
	counter("oscard_artifact_query_points_total", "Points served by the artifact query endpoint.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_query_points_total %d\n", s.artifacts.queryPoints.Load())
	})
	counter("oscard_artifact_load_errors_total", "Artifacts on disk that failed to load at boot.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_load_errors_total %d\n", s.artifacts.loadErrors.Load())
	})
	counter("oscard_artifact_publish_errors_total", "Artifact disk writes that failed at publish.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_artifact_publish_errors_total %d\n", s.artifacts.publishErrors.Load())
	})

	counter("oscard_fleet_retries_total", "Failed fleet dispatches that were retried or re-dispatched, over finished jobs.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_fleet_retries_total %d\n", s.fleetRetries.Load())
	})
	counter("oscard_fleet_quarantine_events_total", "Fleet quarantine transitions (bench and re-admit), over finished jobs.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_fleet_quarantine_events_total %d\n", s.fleetQuarantines.Load())
	})

	perFleet := func(line func(b *strings.Builder, job string, f *fleetRow)) func(b *strings.Builder) {
		return func(b *strings.Builder) {
			for i := range fleets {
				line(b, obs.EscapeLabel(fleets[i].job), &fleets[i])
			}
		}
	}
	gauge("oscard_fleet_batch_size", "Learned per-device batch size of running fleet jobs.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			devices := make([]string, 0, len(f.progress.Devices))
			for d := range f.progress.Devices {
				devices = append(devices, d)
			}
			sort.Strings(devices)
			for _, d := range devices {
				fmt.Fprintf(b, "oscard_fleet_batch_size{job=\"%s\",device=\"%s\"} %d\n",
					job, obs.EscapeLabel(d), f.progress.Devices[d])
			}
		}))
	gauge("oscard_fleet_samples_done", "Samples merged into the streaming reconstruction.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "oscard_fleet_samples_done{job=\"%s\"} %d\n", job, f.progress.SamplesDone)
		}))
	gauge("oscard_fleet_samples_total", "Samples a running fleet job will merge in total.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "oscard_fleet_samples_total{job=\"%s\"} %d\n", job, f.progress.SamplesTotal)
		}))
	gauge("oscard_fleet_solves", "Interim reconstructions completed by a running fleet job.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "oscard_fleet_solves{job=\"%s\"} %d\n", job, f.progress.Solves)
		}))
	gauge("oscard_fleet_retries", "Retried or re-dispatched batches of a running fleet job.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "oscard_fleet_retries{job=\"%s\"} %d\n", job, f.progress.Retries)
		}))
	gauge("oscard_fleet_quarantine_events", "Quarantine transitions of a running fleet job.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "oscard_fleet_quarantine_events{job=\"%s\"} %d\n", job, f.progress.QuarantineEvents)
		}))
	gauge("oscard_fleet_tail_prob", "Learned per-device tail-event probability of running fleet jobs.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			for _, ds := range f.states {
				fmt.Fprintf(b, "oscard_fleet_tail_prob{job=\"%s\",device=\"%s\"} %g\n", job, obs.EscapeLabel(ds.Name), ds.TailProb)
			}
		}))
	gauge("oscard_fleet_fail_rate", "Learned per-device dispatch-failure rate of running fleet jobs.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			for _, ds := range f.states {
				fmt.Fprintf(b, "oscard_fleet_fail_rate{job=\"%s\",device=\"%s\"} %g\n", job, obs.EscapeLabel(ds.Name), ds.FailRate)
			}
		}))
	gauge("oscard_fleet_quarantined", "Whether a device of a running fleet job is currently benched.",
		perFleet(func(b *strings.Builder, job string, f *fleetRow) {
			for _, ds := range f.states {
				quarantined := 0
				if ds.Quarantined {
					quarantined = 1
				}
				fmt.Fprintf(b, "oscard_fleet_quarantined{job=\"%s\",device=\"%s\"} %d\n", job, obs.EscapeLabel(ds.Name), quarantined)
			}
		}))

	fams = append(fams, s.metrics.Families()...)
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	var out strings.Builder
	for _, f := range fams {
		out.WriteString(f.Text)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(out.String()))
}

// buildRevision returns the VCS revision baked into the binary, or "unknown"
// when built outside a checkout (go test binaries, stripped builds).
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}
