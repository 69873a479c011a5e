package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
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

func parseDoc(t testing.TB) *spec.Document {
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

// negativeCostDoc is one private module m(a, b → c) whose hiding costs
// include b = −5.
func negativeCostDoc(t *testing.T) *spec.Document {
	t.Helper()
	doc, err := spec.Parse([]byte(`{"name": "negative-cost", "gamma": 2,
	  "costs": {"a": 1, "b": -5, "c": 10},
	  "modules": [{"name": "m", "visibility": "private",
	    "inputs": [{"name": "a", "domain": 2}, {"name": "b", "domain": 2}],
	    "outputs": [{"name": "c", "domain": 2}], "kind": "table",
	    "table": [{"in": [0, 0], "out": [0]}, {"in": [0, 1], "out": [0]},
	              {"in": [1, 0], "out": [1]}, {"in": [1, 1], "out": [1]}]}]}`))
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
		Solver:    "exact", Variant: "cardinality",
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
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "engine", Variant: "cardinality"},
		{Generated: &server.GeneratedRef{Class: "nope", Seed: 1}, Solver: "exact"},
		{Spec: parseDoc(t), Solver: "greedy", Variant: "set"},
		// solve.Solve's capability check refuses it: a 400 for this job only.
		{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "approx-labelcover", Variant: "cardinality"},
	}}
	resp, raw := post(t, ts, "/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out server.BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 5 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Code != http.StatusOK || out.Results[1].Code != http.StatusOK {
		t.Fatalf("exact/engine failed: %+v", out.Results[:2])
	}
	costA, costB := out.Results[0].Response.Cost, out.Results[1].Response.Cost
	if d := costA - costB; d < -1e-9*(1+costA) || d > 1e-9*(1+costA) {
		t.Fatalf("exact %g != engine %g on one instance", costA, costB)
	}
	if out.Results[2].Code != http.StatusBadRequest || out.Results[2].Error == "" {
		t.Fatalf("unknown class not rejected per-job: %+v", out.Results[2])
	}
	if out.Results[3].Code != http.StatusOK || out.Results[3].Response.Status != "feasible" {
		t.Fatalf("greedy job: %+v", out.Results[3])
	}
	if r := out.Results[4]; r.Code != http.StatusBadRequest || !strings.Contains(r.Error, "cardinality variant") {
		t.Fatalf("wrong-variant job not rejected per-job: %+v", r)
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

// TestBatchJobEqualsSingle sends one table of requests both as single
// /v1/solve calls and as one /v1/batch: every job's code, error text and
// response (elapsedMs aside) must equal the single call's.
func TestBatchJobEqualsSingle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	gen := func(class, solver, variant string) server.SolveRequest {
		return server.SolveRequest{Generated: &server.GeneratedRef{Class: class, Seed: 1}, Solver: solver, Variant: variant}
	}
	engine := gen("sparse", "engine", "cardinality")
	engine.Options = &server.OptionsSpec{Workers: 1} // counters independent of the schedule
	budget := gen("wide", "exact", "set")
	budget.Options = &server.OptionsSpec{NodeBudget: 1}
	jobs := []server.SolveRequest{
		gen("chain", "exact", "set"),
		gen("sparse", "exact", "cardinality"),
		engine,
		{Spec: parseDoc(t), Solver: "greedy", Variant: "set"},
		gen("mystery", "exact", "set"),
		gen("sparse", "approx-labelcover", "cardinality"),
		{Spec: negativeCostDoc(t), Solver: "exact"},
		budget,
	}
	wantCodes := []int{200, 200, 200, 200, 400, 400, 400, 422}

	single := make([]server.BatchResult, len(jobs))
	for i, job := range jobs {
		resp, raw := post(t, ts, "/v1/solve", job)
		single[i].Code = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			out := decodeSolve(t, raw)
			single[i].Response = &out
		} else {
			var e server.ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("job %d: %s", i, raw)
			}
			single[i].Error = e.Error
		}
		if single[i].Code != wantCodes[i] {
			t.Fatalf("job %d alone: status %d (want %d): %s", i, single[i].Code, wantCodes[i], raw)
		}
	}

	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out server.BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out.Results), len(jobs))
	}
	for i, got := range out.Results {
		want := single[i]
		for _, r := range []*server.SolveResponse{got.Response, want.Response} {
			if r != nil {
				r.ElapsedMs = 0
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d: batch %+v (response %+v), alone %+v (response %+v)",
				i, got, got.Response, want, want.Response)
		}
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

	// The exact solver rejects an over-budget search space up front with
	// no incumbent, for either variant: an unprocessable request, not a
	// server fault.
	for _, variant := range []string{"set", "cardinality"} {
		resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "wide", Seed: 1},
			Solver:    "exact", Variant: variant,
			Options: &server.OptionsSpec{NodeBudget: 1},
		})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s up-front budget rejection: status %d: %s", variant, resp.StatusCode, raw)
		}
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
	type badCase struct {
		name string
		body any
		want int
	}
	cases := []badCase{
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
			Generated: &server.GeneratedRef{Class: "sparse"}, Solver: "approx-labelcover", Variant: "cardinality",
		}, http.StatusBadRequest},
		// The engine's universe limit wraps ErrNodeBudget, but it is a
		// capability refusal: 400, not the exact solver's budget 422.
		{"universe above the engine's limit", server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "mega-sparse"}, Solver: "engine",
		}, http.StatusBadRequest},
		// An instance carries one Γ: a per-module requirement would be
		// silently weakened to the document's Γ, so it is refused.
		{"gammaPerModule spec", server.SolveRequest{Spec: perModuleDoc(t), Solver: "exact"}, http.StatusBadRequest},
	}
	// A negative cost breaks the solvers' bounds and pruning (see
	// TestValidate for an instance where the engine and exact disagreed),
	// so every solver refuses it.
	for _, solver := range []string{"engine", "exact", "portfolio", "approx-setcover", "greedy"} {
		cases = append(cases, badCase{"negative cost/" + solver,
			server.SolveRequest{Spec: negativeCostDoc(t), Solver: solver}, http.StatusBadRequest})
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
	// The attribute branch and bound answers as "exact"; "bb" is no
	// solver name any more.
	if resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse"}, Solver: "bb", Variant: "cardinality",
	}); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "unknown solver") {
		t.Errorf("retired solver bb: status %d: %s", resp.StatusCode, raw)
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
	for _, want := range []string{"exact", "engine", "greedy", "lp",
		"approx-setcover", "approx-labelcover", "portfolio"} {
		if _, ok := found[want]; !ok {
			t.Fatalf("solver %q missing from %v", want, sv.Solvers)
		}
	}
	if _, ok := found["bb"]; ok || len(found) != 7 {
		t.Fatalf("want the 7 solvers without bb, got %v", sv.Solvers)
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
// long-running-service memory contract — and no reference alias outlives
// its entry: every reference sent again, whether its entry survived or
// was evicted, answers as a fresh server does.
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
	ctx := context.Background()
	for seed := int64(0); seed < 110; seed += 5 {
		body := marshal(t, classRef("chain", seed, "greedy", "set", 0))
		_, want := serve(t, server.MustNew(server.Config{}).Handler(), ctx, body)
		if code, got := serve(t, s.Handler(), ctx, body); code != http.StatusOK || got != want {
			t.Fatalf("seed %d again: %d %s, want %s", seed, code, got, want)
		}
		if st := s.Session().Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("seed %d again: session %d bytes over the %d budget", seed, st.Bytes, st.MaxBytes)
		}
	}
}

// registerStall registers a stall solver for the test's lifetime.
func registerStall(t *testing.T, s *stallSolver) {
	t.Helper()
	solve.Register(s)
	t.Cleanup(func() { solve.Deregister(s.name) })
}

// postAsync fires a request from its own goroutine (test helpers must not
// t.Fatal off the test goroutine) and returns a channel yielding the status.
func postAsync(t *testing.T, ts *httptest.Server, path string, body any) <-chan int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// allPrivateDoc is an engine-solvable (all-private) workflow: one private
// module over four attributes, so engine requests have a real candidate
// space to search. costsJSON parameterizes cost-only edits.
func allPrivateDoc(t *testing.T, costsJSON string) *spec.Document {
	t.Helper()
	doc, err := spec.Parse([]byte(`{
	  "name": "warmdemo",
	  "gamma": 2,
	  "costs": ` + costsJSON + `,
	  "modules": [
	    {
	      "name": "mix", "visibility": "private",
	      "inputs":  [{"name": "a1", "domain": 2}, {"name": "a2", "domain": 2}],
	      "outputs": [{"name": "b1", "domain": 2}, {"name": "b2", "domain": 2}],
	      "kind": "table",
	      "table": [
	        {"in": [0, 0], "out": [0, 0]},
	        {"in": [0, 1], "out": [1, 0]},
	        {"in": [1, 0], "out": [1, 1]},
	        {"in": [1, 1], "out": [0, 1]}
	      ]
	    }
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSolveWarmChaining drives the edit loop clients chain by fingerprint:
// solve, echo the returned fingerprint as the next request's base, edit
// only costs. The base is accepted and ignored, so every answer matches an
// unchained solve of the same request exactly, the fingerprint survives
// cost-only edits, and no response carries a "warm" key.
func TestSolveWarmChaining(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	one := &server.OptionsSpec{Workers: 1} // deterministic engine counters

	solveRaw := func(costs, base string) []byte {
		t.Helper()
		resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
			Spec: allPrivateDoc(t, costs), Solver: "engine", Variant: "set", Base: base,
			Options: one,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if bytes.Contains(raw, []byte(`"warm"`)) || bytes.Contains(raw, []byte(`"memoHits"`)) {
			t.Fatalf("response carries a retired warm-start field: %s", raw)
		}
		return raw
	}
	same := func(a, b server.SolveResponse) bool {
		return a.Cost == b.Cost && strings.Join(a.Hidden, ",") == strings.Join(b.Hidden, ",") &&
			a.Fingerprint == b.Fingerprint && a.Counters == b.Counters
	}

	costs := `{"a1": 1, "a2": 2, "b1": 3, "b2": 4}`
	first := decodeSolve(t, solveRaw(costs, ""))
	if first.Fingerprint == "" {
		t.Fatal("solve response carries no fingerprint")
	}
	if again := decodeSolve(t, solveRaw(costs, first.Fingerprint)); !same(again, first) {
		t.Fatalf("chained re-solve diverged: %+v vs %+v", again, first)
	}

	// Cost-only edit: same fingerprint, and the chained answer matches the
	// unchained one, whatever the base names.
	edited := `{"a1": 5, "a2": 1, "b1": 1, "b2": 2}`
	reference := decodeSolve(t, solveRaw(edited, ""))
	if reference.Fingerprint != first.Fingerprint {
		t.Fatalf("cost-only edit changed the fingerprint: %s vs %s", reference.Fingerprint, first.Fingerprint)
	}
	for _, base := range []string{first.Fingerprint, "no-such-fingerprint"} {
		if got := decodeSolve(t, solveRaw(edited, base)); !same(got, reference) {
			t.Fatalf("base %q: answer %+v != unchained %+v", base, got, reference)
		}
	}
	if st := s.Session().Stats(); st.WarmHits != 0 || st.WarmMisses != 0 {
		t.Fatalf("warm counters moved: %+v", st)
	}

	// Batch jobs accept a base the same way.
	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{Jobs: []server.SolveRequest{
		{Spec: allPrivateDoc(t, edited), Solver: "engine", Variant: "set", Base: first.Fingerprint, Options: one},
		{Spec: allPrivateDoc(t, edited), Solver: "greedy", Variant: "set"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if r := batch.Results[0].Response; r == nil || !same(*r, reference) {
		t.Fatalf("chained batch job diverged: %+v", batch.Results[0])
	}
	if r := batch.Results[1].Response; r == nil || r.Fingerprint != first.Fingerprint {
		t.Fatalf("greedy batch job: %+v", batch.Results[1])
	}
}

// TestWarmEvictionFallsBackCold is the eviction race: under a budget too
// small to retain any cached state, a re-solve naming a just-returned
// fingerprint as its base must still return the correct optimum.
func TestWarmEvictionFallsBackCold(t *testing.T) {
	// Budget of one byte: every derived problem is evicted immediately
	// after accounting.
	sTiny, tiny := newTestServer(t, server.Config{SessionBytes: 1})
	_, ref := newTestServer(t, server.Config{})

	costs := `{"a1": 2, "a2": 1, "b1": 4, "b2": 3}`
	req := func(base string) server.SolveRequest {
		return server.SolveRequest{
			Spec: allPrivateDoc(t, costs), Solver: "engine", Variant: "set", Base: base,
		}
	}
	resp, raw := post(t, tiny, "/v1/solve", req(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	first := decodeSolve(t, raw)

	resp, raw = post(t, tiny, "/v1/solve", req(first.Fingerprint))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decodeSolve(t, raw)

	resp, raw = post(t, ref, "/v1/solve", req(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, raw)
	}
	want := decodeSolve(t, raw)
	if out.Cost != want.Cost || strings.Join(out.Hidden, ",") != strings.Join(want.Hidden, ",") {
		t.Fatalf("cold fallback diverged: %v (%g) vs %v (%g)", out.Hidden, out.Cost, want.Hidden, want.Cost)
	}
	if st := sTiny.Session().Stats(); st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("tiny session never evicted: %+v", st)
	}
}

// TestRetryAfterDerived pins the 429 hint: it scales with the rejected
// request's weight against a saturated gate instead of the historical
// hardcoded "1", and stays within [1, 30] seconds.
func TestRetryAfterDerived(t *testing.T) {
	stall := &stallSolver{
		name:    "test-stall-retry",
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	stallReq := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "test-stall-retry",
	}
	registerStall(t, stall)
	_, ts := newTestServer(t, server.Config{MaxInFlight: 1, BatchWorkers: 8})

	done := postAsync(t, ts, "/v1/solve", stallReq)
	defer func() { close(stall.release); <-done }()
	<-stall.started

	// Single solve against 1/1 in flight: ceil(1·1/1) = 1.
	resp, _ := post(t, ts, "/v1/solve", stallReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("solve Retry-After = %q, want \"1\"", got)
	}

	// A 5-job batch (weight 5) against the same saturation backs off
	// proportionally: ceil(5·1/1) = 5.
	jobs := make([]server.SolveRequest, 5)
	for i := range jobs {
		jobs[i] = stallReq
	}
	resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(got)
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("batch Retry-After = %q, want an integer in [1, 30]", got)
	}
	if secs != 5 {
		t.Fatalf("batch Retry-After = %d, want 5 (weight 5 against a saturated gate)", secs)
	}
}

// TestAdmissionSurvivesMalformedTraffic is the slot-leak regression test:
// hammer every early-error path — oversized bodies, bad JSON, unservable
// specs, empty and oversized batches, batch jobs that fail derivation —
// then claim the FULL admission capacity in one batch. Any leaked slot
// fails the final claim.
func TestAdmissionSurvivesMalformedTraffic(t *testing.T) {
	const capacity = 2
	_, ts := newTestServer(t, server.Config{
		MaxInFlight: capacity, BatchWorkers: capacity,
		MaxBodyBytes: 4 << 10, MaxBatchJobs: 4,
	})
	rawPost := func(body []byte) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	okJob := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "greedy", Variant: "set",
	}
	infeasible := server.SolveRequest{
		Spec: parseDoc(t), Solver: "exact", Variant: "set", Gamma: 99,
	}
	for i := 0; i < 20; i++ {
		// 413: body over MaxBodyBytes (valid JSON up to the limit, so the
		// size guard fires rather than the parser).
		huge := []byte(`{"solver": "` + strings.Repeat("x", 8<<10) + `"}`)
		if code := rawPost(huge); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: status %d", code)
		}
		// 400: not JSON at all, then unknown fields.
		if code := rawPost([]byte("{nope")); code != http.StatusBadRequest {
			t.Fatalf("bad JSON: status %d", code)
		}
		if code := rawPost([]byte(`{"bogusField": 1}`)); code != http.StatusBadRequest {
			t.Fatalf("unknown field: status %d", code)
		}
		// 422: admitted, then derivation fails (Γ infeasible).
		resp, _ := post(t, ts, "/v1/solve", infeasible)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("infeasible spec: status %d", resp.StatusCode)
		}
		// Batch rejections before and after admission.
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty batch: status %d", resp.StatusCode)
		}
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{
			Jobs: make([]server.SolveRequest, 5),
		})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized batch: status %d", resp.StatusCode)
		}
		// Admitted batch whose every job fails derivation.
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{
			Jobs: []server.SolveRequest{infeasible, infeasible},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failing batch: status %d", resp.StatusCode)
		}
	}

	// Full-weight claim: a batch needing every slot must still admit.
	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{
		Jobs: []server.SolveRequest{okJob, okJob},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-weight batch after malformed traffic: status %d: %s (leaked admission slots)",
			resp.StatusCode, raw)
	}
}
