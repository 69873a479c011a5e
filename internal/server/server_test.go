package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
	"secureview/internal/spec"
)

// demoDoc is a derivable two-module workflow: a private bit-flip feeding a
// public formatter.
const demoDoc = `{
  "name": "demo",
  "gamma": 2,
  "costs": {"a1": 1, "a2": 2, "a3": 1},
  "privatizeCosts": {"fmt": 3},
  "modules": [
    {
      "name": "flip", "visibility": "private",
      "inputs":  [{"name": "a1", "domain": 2}],
      "outputs": [{"name": "a2", "domain": 2}],
      "kind": "table",
      "table": [{"in": [0], "out": [1]}, {"in": [1], "out": [0]}]
    },
    {
      "name": "fmt", "visibility": "public",
      "inputs":  [{"name": "a2", "domain": 2}],
      "outputs": [{"name": "a3", "domain": 2}],
      "kind": "identity"
    }
  ]
}`

func parseDoc(t *testing.T) *spec.Document {
	t.Helper()
	doc, err := spec.Parse([]byte(demoDoc))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// perModuleDoc is a one-module document asking for Γ=4 on module m while
// the document-wide Γ is 2.
func perModuleDoc(t *testing.T) *spec.Document {
	t.Helper()
	doc, err := spec.Parse([]byte(`{"name": "per-module", "gamma": 2, "gammaPerModule": {"m": 4},
	  "costs": {"x1": 1, "x2": 1, "y": 5},
	  "modules": [{"name": "m", "visibility": "private",
	    "inputs": [{"name": "x1", "domain": 2}, {"name": "x2", "domain": 2}],
	    "outputs": [{"name": "y", "domain": 4}], "kind": "table",
	    "table": [{"in": [0, 0], "out": [0]}, {"in": [0, 1], "out": [1]},
	              {"in": [1, 0], "out": [2]}, {"in": [1, 1], "out": [3]}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeSolve(t *testing.T, raw []byte) server.SolveResponse {
	t.Helper()
	var out server.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return out
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.MustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestSolveSpecRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	for _, variant := range []string{"set", "cardinality"} {
		resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
			Spec: parseDoc(t), Solver: "exact", Variant: variant,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", variant, resp.StatusCode, raw)
		}
		out := decodeSolve(t, raw)
		if out.Status != "optimal" || !out.Optimal || out.Solver != "exact" || out.Variant != variant {
			t.Fatalf("%s: unexpected response %+v", variant, out)
		}
		if len(out.Hidden) == 0 || out.Cost <= 0 {
			t.Fatalf("%s: empty solution: %+v", variant, out)
		}
		if out.Bound.Theorem == "" || out.Bound.Factor != 1 {
			t.Fatalf("%s: missing optimality certificate: %+v", variant, out.Bound)
		}
	}
	// Both variants derived through ONE shared Session; the second call of
	// each variant hits the cache.
	for _, variant := range []string{"set", "cardinality"} {
		post(t, ts, "/v1/solve", server.SolveRequest{Spec: parseDoc(t), Solver: "greedy", Variant: variant})
	}
	st := s.Session().Stats()
	if st.Hits < 2 || st.Misses != 2 {
		t.Fatalf("session not shared across requests: %+v", st)
	}
}

func TestSolveGeneratedClasses(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// Workflow topology class: derived via the Session.
	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "chain", Seed: 1},
		Solver:    "exact", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chain: status %d: %s", resp.StatusCode, raw)
	}
	if out := decodeSolve(t, raw); out.Status != "optimal" {
		t.Fatalf("chain: %+v", out)
	}

	// Abstract problem class: generated directly.
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 3},
		Solver:    "bb", Variant: "cardinality",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sparse: status %d: %s", resp.StatusCode, raw)
	}
	if out := decodeSolve(t, raw); out.Status != "optimal" || out.Counters.Nodes == 0 {
		t.Fatalf("sparse: %+v", out)
	}

	// LP result carries its certificate.
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 3},
		Solver:    "lp", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lp: status %d: %s", resp.StatusCode, raw)
	}
	if out := decodeSolve(t, raw); out.Bound.LP <= 0 || out.Bound.Theorem == "" {
		t.Fatalf("lp response missing its bound certificate: %+v", out)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := server.BatchRequest{Jobs: []server.SolveRequest{
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "exact", Variant: "cardinality"},
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "bb", Variant: "cardinality"},
		{Generated: &server.GeneratedRef{Class: "nope", Seed: 1}, Solver: "exact"},
		{Spec: parseDoc(t), Solver: "greedy", Variant: "set"},
	}}
	resp, raw := post(t, ts, "/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out server.BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Code != http.StatusOK || out.Results[1].Code != http.StatusOK {
		t.Fatalf("exact/bb failed: %+v", out.Results[:2])
	}
	costA, costB := out.Results[0].Response.Cost, out.Results[1].Response.Cost
	if d := costA - costB; d < -1e-9*(1+costA) || d > 1e-9*(1+costA) {
		t.Fatalf("exact %g != bb %g on one instance", costA, costB)
	}
	if out.Results[2].Code != http.StatusBadRequest || out.Results[2].Error == "" {
		t.Fatalf("unknown class not rejected per-job: %+v", out.Results[2])
	}
	if out.Results[3].Code != http.StatusOK || out.Results[3].Response.Status != "feasible" {
		t.Fatalf("greedy job: %+v", out.Results[3])
	}

	// Batch caps.
	resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	big := server.BatchRequest{Jobs: make([]server.SolveRequest, 100)}
	resp, _ = post(t, ts, "/v1/batch", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
}

// stallSolver blocks until its context dies (returning a partial incumbent
// when told to carry one) or until release is closed.
type stallSolver struct {
	name    string
	partial bool
	started chan struct{}
	release chan struct{}
}

func (s *stallSolver) Name() string { return s.name }

func (s *stallSolver) Capabilities() solve.Capabilities {
	return solve.Capabilities{Cardinality: true, Set: true}
}

func (s *stallSolver) Supports(p *secureview.Problem, v secureview.Variant) error { return nil }

func (s *stallSolver) Solve(ctx context.Context, p *secureview.Problem, opts solve.Options) (solve.Result, error) {
	if s.started != nil {
		select {
		case s.started <- struct{}{}:
		default:
		}
	}
	select {
	case <-ctx.Done():
		res := solve.Result{Solver: s.name, Variant: opts.Variant}
		if s.partial {
			res.Partial = true
			res.Solution = secureview.Solution{
				Hidden:     relation.NewNameSet("g0"),
				Privatized: relation.NewNameSet(),
			}
			res.Cost = 1
		}
		return res, ctx.Err()
	case <-s.release:
		return solve.Result{Solver: s.name, Variant: opts.Variant}, nil
	}
}

func TestAdmissionRejectsUnderSaturation(t *testing.T) {
	stall := &stallSolver{
		name:    "test-stall",
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	solve.Register(stall)
	t.Cleanup(func() { solve.Deregister("test-stall") })
	_, ts := newTestServer(t, server.Config{MaxInFlight: 1})

	req := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "test-stall",
	}
	// Raw client call: test helpers must not t.Fatal off the test goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	first := make(chan int, 1)
	go func() {
		defer wg.Done()
		raw, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-stall.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the solver")
	}

	// The slot is held: the next request sheds immediately.
	resp, raw := post(t, ts, "/v1/solve", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{Jobs: []server.SolveRequest{req}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d", resp.StatusCode)
	}

	// Read-only endpoints are never gated by admission.
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/solvers"} {
		hr, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d under saturation", path, hr.StatusCode)
		}
	}

	close(stall.release)
	wg.Wait()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("released request: status %d", code)
	}

	// Capacity restored.
	resp, _ = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "greedy",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release solve: status %d", resp.StatusCode)
	}
}

// TestBatchAdmissionWeight: a batch claims one slot per job it can run
// concurrently, so MaxInFlight bounds solver work, not HTTP requests.
func TestBatchAdmissionWeight(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxInFlight: 2, BatchWorkers: 4})
	job := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "greedy", Variant: "cardinality",
	}
	// 4 jobs × 4 workers → weight 4 > 2 slots: shed.
	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{
		Jobs: []server.SolveRequest{job, job, job, job},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-weight batch: status %d: %s", resp.StatusCode, raw)
	}
	// 2 jobs → weight 2 = capacity: admitted.
	resp, raw = post(t, ts, "/v1/batch", server.BatchRequest{
		Jobs: []server.SolveRequest{job, job},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fitting batch: status %d: %s", resp.StatusCode, raw)
	}
}

func TestDeadlinePartialIncumbent(t *testing.T) {
	solve.Register(&stallSolver{name: "test-stall-partial", partial: true, release: make(chan struct{})})
	solve.Register(&stallSolver{name: "test-stall-empty", release: make(chan struct{})})
	t.Cleanup(func() {
		solve.Deregister("test-stall-partial")
		solve.Deregister("test-stall-empty")
	})
	_, ts := newTestServer(t, server.Config{})

	// Deadline + feasible incumbent -> 206 with the partial solution (the
	// HTTP analog of cmd/secureview's exit code 3).
	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "test-stall-partial",
		TimeoutMs: 50,
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decodeSolve(t, raw)
	if out.Status != "partial" || !out.Partial || len(out.Hidden) == 0 || out.Cost != 1 {
		t.Fatalf("partial response: %+v", out)
	}

	// A client-requested node budget that exhausts mid-search with a
	// feasible incumbent (bb always carries its greedy seed out) is the
	// same partial contract, not a server fault.
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "wide", Seed: 1},
		Solver:    "bb", Variant: "cardinality",
		Options: &server.OptionsSpec{NodeBudget: 1},
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("node-budget exhaustion: status %d: %s", resp.StatusCode, raw)
	}
	if out := decodeSolve(t, raw); out.Status != "partial" || len(out.Hidden) == 0 {
		t.Fatalf("node-budget partial response: %+v", out)
	}

	// The exact set solver rejects an over-budget search space up front
	// with no incumbent: an unprocessable request, not a server fault.
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "wide", Seed: 1},
		Solver:    "exact", Variant: "set",
		Options: &server.OptionsSpec{NodeBudget: 1},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("up-front budget rejection: status %d: %s", resp.StatusCode, raw)
	}

	// Deadline with no incumbent -> 504.
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "test-stall-empty",
		TimeoutMs: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("empty-handed deadline: status %d: %s", resp.StatusCode, raw)
	}

	// The per-job deadline applies inside batches too.
	resp, raw = post(t, ts, "/v1/batch", server.BatchRequest{Jobs: []server.SolveRequest{
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "test-stall-partial", TimeoutMs: 50},
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "greedy"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var bout server.BatchResponse
	if err := json.Unmarshal(raw, &bout); err != nil {
		t.Fatal(err)
	}
	if bout.Results[0].Code != http.StatusPartialContent || bout.Results[0].Response.Status != "partial" {
		t.Fatalf("batch partial job: %+v", bout.Results[0])
	}
	if bout.Results[1].Code != http.StatusOK {
		t.Fatalf("batch greedy job: %+v", bout.Results[1])
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no instance", server.SolveRequest{Solver: "exact"}, http.StatusBadRequest},
		{"both instances", server.SolveRequest{
			Spec: parseDoc(t), Generated: &server.GeneratedRef{Class: "chain"}, Solver: "exact",
		}, http.StatusBadRequest},
		{"unknown solver", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "sparse"}, Solver: "quantum",
		}, http.StatusBadRequest},
		{"unknown variant", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "sparse"}, Solver: "exact", Variant: "fancy",
		}, http.StatusBadRequest},
		{"unknown class", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "mystery"}, Solver: "exact",
		}, http.StatusBadRequest},
		{"wrong-variant solver", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "sparse"}, Solver: "bb", Variant: "set",
		}, http.StatusBadRequest},
		// An instance carries one Γ: a per-module requirement would be
		// silently weakened to the document's Γ, so it is refused.
		{"gammaPerModule spec", server.SolveRequest{Spec: perModuleDoc(t), Solver: "exact"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts, "/v1/solve", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, raw)
		}
		var e server.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, raw)
		}
	}

	// Unknown JSON fields are rejected (catches schema drift early).
	resp, _ := ts.Client().Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader([]byte(`{"solver": "exact", "instance": "oops"}`)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}

	// An oversized body is a 413, distinguishable from malformed JSON.
	_, tsSmall := newTestServer(t, server.Config{MaxBodyBytes: 512})
	resp, _ = tsSmall.Client().Post(tsSmall.URL+"/v1/solve", "application/json",
		bytes.NewReader(bytes.Repeat([]byte(" "), 2048)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// GET on a POST endpoint.
	gr, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d", gr.StatusCode)
	}
}

func TestStatsAndSolvers(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxInFlight: 7})
	post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "chain", Seed: 1}, Solver: "greedy",
	})

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Capacity != 7 || st.InFlight != 0 {
		t.Fatalf("admission gauge: %+v", st)
	}
	if st.Session.Misses == 0 || st.Session.Bytes <= 0 || st.Session.MaxBytes <= 0 {
		t.Fatalf("session stats not populated: %+v", st.Session)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	var sv server.SolversResponse
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := map[string]solve.Capabilities{}
	for _, info := range sv.Solvers {
		found[info.Name] = info.Capabilities
	}
	for _, want := range []string{"exact", "bb", "engine", "greedy", "lp",
		"approx-setcover", "approx-labelcover", "portfolio"} {
		if _, ok := found[want]; !ok {
			t.Fatalf("solver %q missing from %v", want, sv.Solvers)
		}
	}
	// Capabilities must round-trip with meaningful content, not zero values.
	if c := found["exact"]; !c.Exact || !c.Cardinality || !c.Set || c.Factor == "" {
		t.Fatalf("exact capabilities hollow: %+v", c)
	}
	if c := found["approx-setcover"]; c.Exact || !c.Certified || c.Factor == "" {
		t.Fatalf("approx-setcover capabilities wrong: %+v", c)
	}
	if c := found["engine"]; !c.AllPrivateOnly || c.MaxUniverse == 0 {
		t.Fatalf("engine capabilities wrong: %+v", c)
	}
}

// TestServerSessionEviction: a tightly capped server Session serves 100+
// distinct generated workflows while staying under its byte budget — the
// long-running-service memory contract.
func TestServerSessionEviction(t *testing.T) {
	s, ts := newTestServer(t, server.Config{SessionBytes: 32 << 10})
	for seed := int64(0); seed < 110; seed++ {
		resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "chain", Seed: seed},
			Solver:    "greedy", Variant: "set",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, raw)
		}
		if st := s.Session().Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("seed %d: session %d bytes over the %d budget", seed, st.Bytes, st.MaxBytes)
		}
	}
	st := s.Session().Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions across 110 workflows: %+v", st)
	}
}
