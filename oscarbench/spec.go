package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/ansatz"
	"repro/internal/service"
)

// Every input the server receives is a pure function of the workload seed:
// job i of a workload and query q of a stream are built from derive(seed,
// stream, i), never from the clock or from server responses.

// Input streams: each kind of input draws from its own stream, so adding
// jobs to one never shifts another.
const (
	streamJob uint64 = iota + 1
	streamWarmup
	streamArtifact
	streamQuery
	streamSchedule
)

// Parts of one job, each seeded from the job's own seed.
const (
	partProblem uint64 = iota + 1
	partSampling
	partFleet
)

// derive mixes (seed, stream, i) into a positive 31-bit seed with the
// splitmix64 finalizer.
func derive(seed int64, stream uint64, i int) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// shape fixes the sizes of one workload's jobs and queries. Tests run the
// same code on tinyShapes.
type shape struct {
	qubits      int
	backend     string // analytic | statevector
	betaN       int
	gammaN      int
	fraction    float64
	fleet       bool
	queryPoints int // points of every query
	// followQueries is how many queries follow each job on its fresh
	// landscape; the first refits the surrogate, the rest find it fitted.
	followQueries int
	// Lockstep clients submitting the same job (1 = a single client).
	clients int

	// surrogate-query only: artifacts published in set-up, the LRU the
	// server keeps, and every how many queries one goes to an artifact the
	// LRU does not hold.
	artifacts int
	lru       int
	missEvery int
	// minQueries is the fewest queries a phase sends, so that p99 has at
	// least ten samples beyond it.
	minQueries int

	// fleet-chaos only: jobs every run completes, over which the fleet's
	// virtual-time counts are summed (they repeat exactly for a seed).
	fixedJobs int
}

// fullShapes are the benchmark's sizes. qaoa-sv-shared uses 16 qubits, not
// 18: at 18 the lockstep jobs' median moved by 15% between runs on a shared
// 2-vCPU host, at 16 by under 10%, and four times as many rounds fit in a
// run.
var fullShapes = map[string]shape{
	"table1-analytic": {qubits: 16, backend: "analytic", betaN: 50, gammaN: 100, fraction: 0.05, queryPoints: 512, followQueries: 4, clients: 1},
	"qaoa-sv-shared":  {qubits: 16, backend: "statevector", betaN: 16, gammaN: 32, fraction: 0.25, queryPoints: 512, followQueries: 4, clients: 2},
	"surrogate-query": {qubits: 16, backend: "analytic", betaN: 50, gammaN: 100, fraction: 0.05, queryPoints: 512, clients: 1, artifacts: 3, lru: 2, missEvery: 8, minQueries: 1000},
	"fleet-chaos":     {qubits: 12, backend: "analytic", betaN: 50, gammaN: 100, fraction: 0.05, queryPoints: 512, followQueries: 4, clients: 1, fleet: true, fixedJobs: 3},
}

var tinyShapes = map[string]shape{
	"table1-analytic": {qubits: 8, backend: "analytic", betaN: 16, gammaN: 24, fraction: 0.4, queryPoints: 16, followQueries: 2, clients: 1},
	"qaoa-sv-shared":  {qubits: 6, backend: "statevector", betaN: 16, gammaN: 24, fraction: 0.4, queryPoints: 16, followQueries: 2, clients: 2},
	"surrogate-query": {qubits: 8, backend: "analytic", betaN: 16, gammaN: 24, fraction: 0.4, queryPoints: 16, clients: 1, artifacts: 3, lru: 2, missEvery: 4, minQueries: 8},
	"fleet-chaos":     {qubits: 8, backend: "analytic", betaN: 16, gammaN: 24, fraction: 0.4, queryPoints: 16, followQueries: 2, clients: 1, fleet: true, fixedJobs: 2},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table1-analytic", "qaoa-sv-shared", "surrogate-query", "fleet-chaos"}

// fleetThresholds gives fleet jobs one interim solve before the
// warm-started final solve.
var fleetThresholds = []float64{0.5}

const fleetKeepFraction = 0.95

// jobSpec builds job i of a stream: a wait-mode Table-1 style QAOA job on a
// fresh random 3-regular MaxCut instance, so no two jobs share a cache key.
// The set-up streams (warm-up jobs and surrogate-query's artifacts) ignore
// the seed: set-up is the same in every run, so setup_s does not vary with
// the workload's inputs.
func jobSpec(sh shape, seed int64, stream uint64, i int) *service.JobSpec {
	if stream == streamWarmup || stream == streamArtifact {
		seed = 0
	}
	js := derive(seed, stream, i)
	spec := &service.JobSpec{
		Problem: service.ProblemSpec{Kind: "maxcut3", N: sh.qubits, Seed: derive(js, partProblem, 0)},
		Backend: service.BackendSpec{Kind: sh.backend},
		Grid:    service.GridSpec{BetaN: sh.betaN, GammaN: sh.gammaN},
		Options: service.OptionsSpec{
			SamplingFraction: sh.fraction,
			Seed:             derive(js, partSampling, 0),
		},
		Wait:       true,
		ReturnData: true,
	}
	if sh.fleet {
		spec.Fleet = fleetSpec(derive(js, partFleet, 0))
	}
	return spec
}

// fleetSpec is the chaos fleet: three virtual devices, one drifting and one
// failing at random, all under one shared retry storm, scheduled
// risk-aware with the batch-boundary eager cut.
func fleetSpec(seed int64) *service.FleetSpec {
	return &service.FleetSpec{
		Seed:         seed,
		RiskAware:    true,
		KeepFraction: fleetKeepFraction,
		Thresholds:   fleetThresholds,
		Scenario:     &service.ScenarioSpec{Kind: "retry_storm", Spacing: 300, Duration: 100, Prob: 0.5},
		Devices: []service.FleetDeviceSpec{
			{Name: "steady", QueueMedian: 30, Sigma: 0.5, Exec: 1},
			{Name: "drifting", QueueMedian: 10, Sigma: 0.5, Exec: 2,
				Scenario: &service.ScenarioSpec{Kind: "drift", Start: 0, Rate: 0.002, Max: 4}},
			{Name: "flaky", QueueMedian: 20, Sigma: 0.5, Exec: 1, FailureProb: 0.15},
		},
	}
}

// queryRequest is the body of POST /landscapes/{id}/query.
type queryRequest struct {
	Points    [][]float64 `json:"points"`
	Gradients bool        `json:"gradients"`
}

// queryPoints draws the n points of query q of a stream uniformly over the
// depth-1 QAOA grid domain, so they fall between grid nodes and exercise
// interpolation. The k-th query that follows job i of a stream is query
// i*followQueries+k of that stream; surrogate-query's own queries form
// streamQuery.
func queryPoints(n int, seed int64, stream uint64, q int) [][]float64 {
	rng := rand.New(rand.NewSource(derive(derive(seed, streamQuery, int(stream)), 0, q)))
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(1)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{bMin + (bMax-bMin)*rng.Float64(), gMin + (gMax-gMin)*rng.Float64()}
	}
	return pts
}

// querySchedule picks the artifact of each surrogate query. Every missEvery
// queries it targets an artifact the server's LRU (capacity lru, most
// recent first) does not hold, forcing a refit; the rest pick uniformly
// among the resident ones. The share of refits is therefore fixed by the
// shape while the sequence itself comes from the seed.
type querySchedule struct {
	rng       *rand.Rand
	artifacts int
	lru       int
	missEvery int
	resident  []int // most recently used first
	q         int
}

func newQuerySchedule(sh shape, seed int64) *querySchedule {
	return &querySchedule{
		rng:       rand.New(rand.NewSource(derive(seed, streamSchedule, 0))),
		artifacts: sh.artifacts, lru: sh.lru, missEvery: sh.missEvery,
	}
}

// next returns the artifact index of the next query and whether the server
// has to refit it.
func (s *querySchedule) next() (art int, refit bool) {
	defer func() { s.q++ }()
	if len(s.resident) == 0 || s.q%s.missEvery == 0 {
		var cold []int
		for a := 0; a < s.artifacts; a++ {
			if !contains(s.resident, a) {
				cold = append(cold, a)
			}
		}
		if len(cold) > 0 {
			art = cold[s.rng.Intn(len(cold))]
			s.touch(art)
			return art, true
		}
	}
	art = s.resident[s.rng.Intn(len(s.resident))]
	s.touch(art)
	return art, false
}

// touch moves art to the front of the simulated LRU, evicting past lru.
func (s *querySchedule) touch(art int) {
	out := []int{art}
	for _, a := range s.resident {
		if a != art {
			out = append(out, a)
		}
	}
	if len(out) > s.lru {
		out = out[:s.lru]
	}
	s.resident = out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding benchmark input: %v", err))
	}
	return b
}
