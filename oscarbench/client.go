package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// harness is one in-process oscard: service.New behind an httptest server on
// loopback, and an HTTP client limited to as many connections as the
// workload has clients.
type harness struct {
	srv    *service.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
}

func startHarness(cfg service.Config, clients int) *harness {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.New(cfg)
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &harness{srv: srv, ts: httptest.NewServer(srv), tr: tr, client: &http.Client{Transport: tr}}
}

// close stops the listener and every in-flight job, and waits for them.
func (h *harness) close() {
	h.tr.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
}

// do sends one request and returns the status and the whole body.
func (h *harness) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobView is the part of a finished job's JSON the benchmark reads.
type jobView struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Result *jobResult `json:"result"`
}

type jobResult struct {
	Samples    int          `json:"samples"`
	Data       []float64    `json:"data"`
	ArtifactID string       `json:"artifact_id"`
	Fleet      *fleetResult `json:"fleet"`
}

type fleetResult struct {
	Makespan    float64        `json:"makespan_s"`
	Retries     int            `json:"retries"`
	Batches     int            `json:"batches"`
	CacheServed int            `json:"cache_served"`
	Solves      int            `json:"solves"`
	PerDevice   map[string]int `json:"jobs_per_device"`
}

// submitJob posts a wait-mode job and returns its view and the client round
// trip.
func (h *harness) submitJob(body []byte) (*jobView, time.Duration, error) {
	t0 := time.Now()
	status, b, err := h.do("POST", "/jobs", body)
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, fmt.Errorf("POST /jobs: %w", err)
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, rt, fmt.Errorf("POST /jobs answered %d with undecodable body: %w", status, err)
	}
	if status != http.StatusOK || v.State != "done" || v.Result == nil {
		return &v, rt, fmt.Errorf("POST /jobs answered %d, state %q: %s", status, v.State, v.Error)
	}
	return &v, rt, nil
}

// jobTrace fetches a finished job's server-side span tree.
func (h *harness) jobTrace(id string) (*obs.TraceTree, error) {
	status, b, err := h.do("GET", "/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, fmt.Errorf("GET trace: %w", err)
	}
	var v struct {
		Trace *obs.TraceTree `json:"trace"`
	}
	if err := json.Unmarshal(b, &v); err != nil || status != http.StatusOK || v.Trace == nil {
		return nil, fmt.Errorf("GET /jobs/%s/trace answered %d: %.200s", id, status, b)
	}
	return v.Trace, nil
}

// queryView is a surrogate query's answer; Trace is set on ?trace=1.
type queryView struct {
	Count     int            `json:"count"`
	Values    []float64      `json:"values"`
	Gradients [][]float64    `json:"gradients"`
	Trace     *obs.TraceTree `json:"trace"`
}

// query posts one surrogate query and returns the answer and the client
// round trip.
func (h *harness) query(artifact string, body []byte, traced bool) (*queryView, time.Duration, error) {
	path := "/landscapes/" + artifact + "/query"
	if traced {
		path += "?trace=1"
	}
	t0 := time.Now()
	status, b, err := h.do("POST", path, body)
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, fmt.Errorf("POST query: %w", err)
	}
	var v queryView
	if err := json.Unmarshal(b, &v); err != nil || status != http.StatusOK {
		return nil, rt, fmt.Errorf("POST %s answered %d: %.200s", path, status, b)
	}
	return &v, rt, nil
}

// lruCounts reads the artifact LRU's hit and miss counters from /stats.
func (h *harness) lruCounts() (hits, misses int64, err error) {
	status, b, err := h.do("GET", "/stats", nil)
	if err != nil {
		return 0, 0, fmt.Errorf("GET /stats: %w", err)
	}
	var v struct {
		Artifacts struct {
			Hits   int64 `json:"lru_hits"`
			Misses int64 `json:"lru_misses"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(b, &v); err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /stats answered %d: %.200s", status, b)
	}
	return v.Artifacts.Hits, v.Artifacts.Misses, nil
}
