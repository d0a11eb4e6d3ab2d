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
// format (version 0.0.4) — hand-rolled, no client library dependency. The
// server's obs registry holds every counter the server increments (panics,
// fleet retry/quarantine totals, dropped spans, artifact-store counters) and
// the per-stage latency histograms fed by span completions; this handler
// adds the gauges derived from live state at scrape time: job states, the
// execution-cache counters (they live in each exec.Cache), artifact counts,
// build information, and per-job gauges of running fleet jobs (learned batch
// sizes, retry/quarantine progress, per-device tail estimates), which vanish
// when the job finishes. Families are emitted in sorted name order, every
// scrape, so diffs between scrapes — and smoke-test greps — are stable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	// Snapshot device states outside the server lock: States takes the
	// scheduler's own mutex, which is free while planning is done and
	// streaming runs.
	for i := range snap.fleets {
		if f := &snap.fleets[i]; f.sch != nil {
			f.states = f.sch.States()
		}
	}

	// Each family renders into its own block; all blocks — these and the
	// registry's — merge and sort by family name before writing.
	fams := s.metrics.Families()
	family := func(name, typ, help string, body func(b *strings.Builder)) {
		var b strings.Builder
		body(&b)
		fams = append(fams, obs.Family(name, typ, help, b.String()))
	}
	single := func(name, typ, help string, v any) {
		fams = append(fams, obs.Family(name, typ, help, fmt.Sprintf("%s %v\n", name, v)))
	}

	family("oscard_build_info", "gauge", "Build information; value is always 1.", func(b *strings.Builder) {
		fmt.Fprintf(b, "oscard_build_info{go_version=%q,revision=%q} 1\n",
			obs.EscapeLabel(runtime.Version()), obs.EscapeLabel(buildRevision()))
	})
	single("oscard_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.start).Seconds())
	family("oscard_jobs", "gauge", "Jobs currently tracked, by state.", func(b *strings.Builder) {
		for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
			fmt.Fprintf(b, "oscard_jobs{state=%q} %d\n", st, snap.byState[st])
		}
	})
	single("oscard_cache_hits_total", "counter", "Execution-cache lookups served without running a circuit.", snap.cacheSum.Hits)
	single("oscard_cache_misses_total", "counter", "Execution-cache lookups that fell through to execution.", snap.cacheSum.Misses)
	single("oscard_cache_entries", "gauge", "Memoized circuit executions across all device configurations.", snap.cacheSum.Len)
	single("oscard_cache_configs", "gauge", "Distinct device configurations holding a cache.", len(snap.caches))
	arts, fitted := s.artifacts.len()
	single("oscard_artifacts", "gauge", "Landscape artifacts available for serving.", arts)
	single("oscard_artifact_lru_entries", "gauge", "Fitted interpolators resident in the artifact LRU.", fitted)

	perFleet := func(name, help string, line func(b *strings.Builder, job string, f *fleetRow)) {
		family(name, "gauge", help, func(b *strings.Builder) {
			for i := range snap.fleets {
				line(b, obs.EscapeLabel(snap.fleets[i].job), &snap.fleets[i])
			}
		})
	}
	perFleet("oscard_fleet_batch_size", "Learned per-device batch size of running fleet jobs.",
		func(b *strings.Builder, job string, f *fleetRow) {
			devices := make([]string, 0, len(f.progress.Devices))
			for d := range f.progress.Devices {
				devices = append(devices, d)
			}
			sort.Strings(devices)
			for _, d := range devices {
				fmt.Fprintf(b, "oscard_fleet_batch_size{job=\"%s\",device=\"%s\"} %d\n",
					job, obs.EscapeLabel(d), f.progress.Devices[d])
			}
		})
	perJob := func(name, help string, v func(p *FleetProgress) int) {
		perFleet(name, help, func(b *strings.Builder, job string, f *fleetRow) {
			fmt.Fprintf(b, "%s{job=\"%s\"} %d\n", name, job, v(&f.progress))
		})
	}
	perJob("oscard_fleet_samples_done", "Samples merged into the streaming reconstruction.",
		func(p *FleetProgress) int { return p.SamplesDone })
	perJob("oscard_fleet_samples_total", "Samples a running fleet job will merge in total.",
		func(p *FleetProgress) int { return p.SamplesTotal })
	perJob("oscard_fleet_solves", "Interim reconstructions completed by a running fleet job.",
		func(p *FleetProgress) int { return p.Solves })
	perJob("oscard_fleet_retries", "Retried or re-dispatched batches of a running fleet job.",
		func(p *FleetProgress) int { return p.Retries })
	perJob("oscard_fleet_quarantine_events", "Quarantine transitions of a running fleet job.",
		func(p *FleetProgress) int { return p.QuarantineEvents })
	// Device values print with %v: %g for the float estimates, %d for the
	// 0/1 quarantine flag.
	perDevice := func(name, help string, v func(ds *fleet.DeviceState) any) {
		perFleet(name, help, func(b *strings.Builder, job string, f *fleetRow) {
			for i := range f.states {
				ds := &f.states[i]
				fmt.Fprintf(b, "%s{job=\"%s\",device=\"%s\"} %v\n", name, job, obs.EscapeLabel(ds.Name), v(ds))
			}
		})
	}
	perDevice("oscard_fleet_tail_prob", "Learned per-device tail-event probability of running fleet jobs.",
		func(ds *fleet.DeviceState) any { return ds.TailProb })
	perDevice("oscard_fleet_fail_rate", "Learned per-device dispatch-failure rate of running fleet jobs.",
		func(ds *fleet.DeviceState) any { return ds.FailRate })
	perDevice("oscard_fleet_quarantined", "Whether a device of a running fleet job is currently benched.",
		func(ds *fleet.DeviceState) any {
			if ds.Quarantined {
				return 1
			}
			return 0
		})

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
