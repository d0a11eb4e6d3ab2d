package qpu_test

// Batched runs of qpu devices: fleet.Scheduler is the one batch dispatcher,
// and its fixed-batch mode is the paper's Section 5 amortization (one queue
// delay per batch instead of one per job). These tests drive it over qpu
// devices, latency models and scenarios.

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/landscape"
	"repro/internal/qpu"
)

func batchGrid(t *testing.T) *landscape.Grid {
	t.Helper()
	g, err := landscape.NewGrid(
		landscape.Axis{Name: "x", Min: -1, Max: 1, N: 10},
		landscape.Axis{Name: "y", Min: -1, Max: 1, N: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func batchEval(label string) backend.Evaluator {
	return &backend.Func{Label: label, Params: 2, F: func(p []float64) (float64, error) {
		return p[0]*p[0] + p[1], nil
	}}
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestRunBatchedValuesAndAmortization checks that fixed-size batches carry
// the same measured values as single-job scheduling on Executor.Run while
// amortizing queue latency into a shorter makespan.
func TestRunBatchedValuesAndAmortization(t *testing.T) {
	g := batchGrid(t)
	lat := qpu.LatencyModel{QueueMedian: 60, Sigma: 0.4, Exec: 1}
	devs := []qpu.Device{
		{Name: "a", Eval: batchEval("a"), Latency: lat},
		{Name: "b", Eval: batchEval("b"), Latency: lat},
	}
	indices := firstN(g.Size())
	ex, err := qpu.NewExecutor(5, devs...)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ex.Run(g, indices)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	s, err := fleet.New(fleet.Options{Seed: 5, FixedBatch: k}, devs...)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := s.Run(context.Background(), g, indices)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Results) != len(indices) {
		t.Fatalf("%d results want %d", len(batched.Results), len(indices))
	}
	// Every batch carries k jobs except one remainder.
	odd := 0
	for _, b := range batched.Batches {
		if b.Size != k {
			odd++
		}
	}
	if odd > 1 || len(batched.Batches) != (len(indices)+k-1)/k {
		t.Fatalf("fixed batch %d: %d groups, %d not of size %d", k, len(batched.Batches), odd, k)
	}
	// Same measured values per index (time is simulated, values are real).
	want := map[int]float64{}
	for _, r := range single.Results {
		want[r.Index] = r.Value
	}
	for _, r := range batched.Results {
		if v, ok := want[r.Index]; !ok || r.Value != v {
			t.Fatalf("index %d: batched value %g, single-job value %g", r.Index, r.Value, v)
		}
	}
	// 100 jobs on 2 devices: 50 queue waits each unbatched, about 7 batched.
	if batched.Makespan >= single.Makespan/2 {
		t.Fatalf("batching did not amortize queue latency: batched makespan %g vs single %g",
			batched.Makespan, single.Makespan)
	}
	if sp := batched.Speedup(); sp <= 1 {
		t.Fatalf("batched speedup %g, want > 1", sp)
	}
	if batched.PerDevice[0]+batched.PerDevice[1] != len(indices) {
		t.Fatalf("per-device counts %v do not sum to %d", batched.PerDevice, len(indices))
	}
}

// TestRunBatchedSurvivesDropout: one device is dark for the whole run and
// the scheduler is not risk-aware, so every batch first tried there must be
// rescheduled, and the run must still deliver every job.
func TestRunBatchedSurvivesDropout(t *testing.T) {
	g, ev := batchGrid(t), batchEval("chaos")
	lat := qpu.LatencyModel{QueueMedian: 20, Sigma: 0.3, Exec: 2}
	indices := firstN(60)
	for _, fixedBatch := range []int{10, 0} {
		s, err := fleet.New(fleet.Options{Seed: 11, FixedBatch: fixedBatch},
			qpu.Device{Name: "dark", Eval: ev, Latency: lat, Scenario: qpu.Dropout{Start: 0, Duration: 1e9}},
			qpu.Device{Name: "ok", Eval: ev, Latency: lat},
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background(), g, indices)
		if err != nil {
			t.Fatalf("fixed batch %d under dropout: %v", fixedBatch, err)
		}
		if len(rep.Results) != len(indices) {
			t.Fatalf("fixed batch %d: %d results, want %d", fixedBatch, len(rep.Results), len(indices))
		}
		if rep.Retries == 0 {
			t.Fatalf("fixed batch %d: no retries from the dark device", fixedBatch)
		}
		if rep.PerDevice[0] != 0 {
			t.Fatalf("fixed batch %d: dark device completed %d jobs", fixedBatch, rep.PerDevice[0])
		}
	}
}

// TestRunBatchedScenarioDeterministic: queue spikes and a retry storm are
// drawn from their own seeds, so two same-seed schedulers replay the same
// batched run.
func TestRunBatchedScenarioDeterministic(t *testing.T) {
	g, ev := batchGrid(t), batchEval("chaos")
	lat := qpu.LatencyModel{QueueMedian: 20, Sigma: 0.5, Exec: 2, TailProb: 0.05, TailFactor: 15}
	run := func() *qpu.RunReport {
		s, err := fleet.New(fleet.Options{Seed: 17, FixedBatch: 8},
			qpu.Device{Name: "a", Eval: ev, Latency: lat, Scenario: qpu.NewQueueSpikes(5, 300, 80, 8)},
			qpu.Device{Name: "b", Eval: ev, Latency: lat, Scenario: qpu.NewRetryStorm(6, 250, 60, 0.7)},
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background(), g, firstN(80))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Makespan != r2.Makespan || r1.Retries != r2.Retries || len(r1.Batches) != len(r2.Batches) {
		t.Fatalf("scenario run not reproducible: makespan %g/%g retries %d/%d batches %d/%d",
			r1.Makespan, r2.Makespan, r1.Retries, r2.Retries, len(r1.Batches), len(r2.Batches))
	}
}
