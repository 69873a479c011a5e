package main

// Served rows time the path a caller of /v1/solve and /v1/batch
// experiences — decode, reference resolution, Session hit, delta or
// derivation, solve, encode — in process and sequentially: each rep builds
// a fresh server, sends the row's warm-up requests untimed through its
// Handler, then times one pass of the row's requests. The four rows mirror
// the served-path benchmark's workload shapes (BENCHMARK.json). Any
// non-200 response, or an exact or engine answer that is not optimal,
// fails the run, and so does a timed pass that moves the Session's
// counters other than its shape says: a row cannot drift into timing
// another path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
	"secureview/internal/spec"
)

// servedCall is one HTTP request of a served row.
type servedCall struct {
	path string
	body []byte
}

// servedRow is one workload shape: the warm-up, the timed pass, and the
// Hits, Misses and DeltaDerives the timed pass adds to the Session.
type servedRow struct {
	name          string
	warmup, timed []servedCall
	want          solve.SessionStats
}

// call marshals one request body. The requests hold finite numbers and
// plain values only, so json.Marshal failing on one is a bug.
func call(path string, req any) servedCall {
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("served: %s request: %v", path, err))
	}
	return servedCall{path, body}
}

// specRequest is the spec-document form of a workflow with its Γ and
// costs.
func specRequest(it *gen.Instance, solver string) (server.SolveRequest, error) {
	doc, err := spec.FromWorkflow(it.W)
	if err != nil {
		return server.SolveRequest{}, err
	}
	doc.Gamma, doc.Costs, doc.PrivatizeCosts = it.Gamma, it.Costs, it.PrivatizeCosts
	return server.SolveRequest{Spec: doc, Solver: solver}, nil
}

func servedRows() ([]servedRow, error) {
	// cached-mix: every workflow class at seeds 0-2 under four solvers and
	// every corpus entry under greedy, as single solves and then again in
	// batches of 4; the warm-up is the same list, so every job is a hit.
	// exact-search: the k ≥ 13 corpus entries under exact and under the
	// single-worker engine, warmed the same way.
	var mix []server.SolveRequest
	var cached, hard []servedCall
	for _, c := range gen.Classes() {
		for seed := int64(0); seed < 3; seed++ {
			for _, solver := range []string{"greedy", "exact", "lp", "portfolio"} {
				mix = append(mix, server.SolveRequest{Generated: &server.GeneratedRef{Class: c.Name, Seed: seed}, Solver: solver})
			}
		}
	}
	for _, e := range corpus.Entries() {
		mix = append(mix, server.SolveRequest{Corpus: e.ID, Solver: "greedy"})
		if e.K >= 13 {
			hard = append(hard, call("/v1/solve", server.SolveRequest{Corpus: e.ID, Solver: "exact"}),
				call("/v1/solve", server.SolveRequest{Corpus: e.ID, Solver: "engine", Options: &server.OptionsSpec{Workers: 1}}))
		}
	}
	for _, r := range mix {
		cached = append(cached, call("/v1/solve", r))
	}
	for i := 0; i < len(mix); i += 4 {
		cached = append(cached, call("/v1/batch", server.BatchRequest{Jobs: mix[i:min(i+4, len(mix))]}))
	}

	// edit-chain: SearchBench k=14 as a spec document; the warm-up derives
	// its base costs, and each timed request raises one more attribute's
	// cost, a new cost vector that the Session answers by re-costing. The
	// document holds costs itself, so each call sends the edits so far.
	const edits = 8
	w, costs, gamma := exp.SearchBenchWorkflow(14)
	base, err := specRequest(&gen.Instance{W: w, Costs: costs, Gamma: gamma}, "exact")
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(costs))
	for a := range costs {
		names = append(names, a)
	}
	sort.Strings(names)
	chain := []servedCall{call("/v1/solve", base)}
	for _, a := range names[:edits] {
		costs[a] *= 1.5
		chain = append(chain, call("/v1/solve", base))
	}

	// cold-derive: workflow-class instances at seeds no other row sends,
	// as spec documents under greedy, with no warm-up: every request
	// derives. Two seeds of a small class can draw the same workflow, which
	// would be a hit or a delta, so only its first seed is sent.
	const fresh = 64
	var cold []servedCall
	seen := make(map[string]bool)
	for seed := int64(100); len(cold) < fresh; seed++ {
		for _, c := range gen.Classes() {
			if len(cold) == fresh {
				break
			}
			it, err := gen.New(c.Cfg, seed)
			if err != nil {
				return nil, err
			}
			key := solve.StructuralFingerprint(it.W, secureview.Set, it.Gamma)
			if seen[key] {
				continue
			}
			seen[key] = true
			r, err := specRequest(it, "greedy")
			if err != nil {
				return nil, err
			}
			cold = append(cold, call("/v1/solve", r))
		}
	}

	return []servedRow{
		{name: "served/cached-mix", warmup: cached, timed: cached, want: solve.SessionStats{Hits: 2 * len(mix)}},
		{name: "served/exact-search", warmup: hard, timed: hard, want: solve.SessionStats{Hits: len(hard)}},
		{name: "served/edit-chain", warmup: chain[:1], timed: chain[1:], want: solve.SessionStats{Misses: edits, DeltaDerives: edits}},
		{name: "served/cold-derive", timed: cold, want: solve.SessionStats{Misses: fresh}},
	}, nil
}

// servedResults times each served row: NsPerOp is the best timed pass
// over reps fresh servers, and K the number of requests in a pass.
func servedResults(quick bool, repsOverride int) ([]benchResult, error) {
	reps := 3
	if quick {
		reps = 1
	}
	if repsOverride > 0 {
		reps = repsOverride
	}
	rows, err := servedRows()
	if err != nil {
		return nil, fmt.Errorf("served: %w", err)
	}
	var results []benchResult
	for _, row := range rows {
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			d, err := row.pass()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", row.name, err)
			}
			best = min(best, d)
		}
		results = append(results, benchResult{Name: row.name, K: len(row.timed), NsPerOp: best.Nanoseconds()})
	}
	return results, nil
}

// pass builds a fresh server, sends the warm-up, and returns the time of
// one sequential pass of the timed requests, checked after the clock
// stops.
func (row servedRow) pass() (time.Duration, error) {
	srv := server.MustNew(server.Config{})
	h := srv.Handler()
	for _, c := range row.warmup {
		if err := checkServed(c, serveCall(h, c)); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	before := srv.Session().Stats()
	recs := make([]*httptest.ResponseRecorder, len(row.timed))
	start := time.Now()
	for i, c := range row.timed {
		recs[i] = serveCall(h, c)
	}
	d := time.Since(start)
	after := srv.Session().Stats()
	for i, c := range row.timed {
		if err := checkServed(c, recs[i]); err != nil {
			return 0, fmt.Errorf("timed request %d: %w", i, err)
		}
	}
	got := solve.SessionStats{
		Hits:         after.Hits - before.Hits,
		Misses:       after.Misses - before.Misses,
		DeltaDerives: after.DeltaDerives - before.DeltaDerives,
	}
	if got != row.want {
		return 0, fmt.Errorf("timed pass added %d hits, %d misses and %d deltas to the Session, want %d, %d and %d",
			got.Hits, got.Misses, got.DeltaDerives, row.want.Hits, row.want.Misses, row.want.DeltaDerives)
	}
	return d, nil
}

func serveCall(h http.Handler, c servedCall) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
	return rec
}

// checkServed requires a 200 for the request and for each of a batch's
// jobs, and an optimal status from every exact or engine answer.
func checkServed(c servedCall, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", c.path, rec.Code, rec.Body)
	}
	var resps []server.SolveResponse
	if c.path == "/v1/batch" {
		var b server.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		for i, r := range b.Results {
			if r.Code != http.StatusOK || r.Response == nil {
				return fmt.Errorf("%s: job %d: status %d: %s", c.path, i, r.Code, r.Error)
			}
			resps = append(resps, *r.Response)
		}
	} else {
		var r server.SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		resps = append(resps, r)
	}
	for _, r := range resps {
		if (r.Solver == "exact" || r.Solver == "engine") && r.Status != "optimal" {
			return fmt.Errorf("%s: %s answered %q, not optimal", c.path, r.Solver, r.Status)
		}
	}
	return nil
}
