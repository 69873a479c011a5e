package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
)

// span is one timed call into a layer's public function during the
// replay. Spans of one request share Req; Parent is the ID of the caller's
// span (-1 for the request span itself).
type span struct {
	Req     string  `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
	Warmup  bool    `json:"warmup,omitempty"`
	// Attributes.
	Solver        string          `json:"solver,omitempty"`
	Outcome       string          `json:"outcome,omitempty"` // session: hit, miss or delta; warm: hit or miss
	Options       int             `json:"options,omitempty"` // requirement options of the derived problem
	FrontierBytes int64           `json:"frontierBytes,omitempty"`
	Counters      *solve.Counters `json:"counters,omitempty"`
}

func (s *span) dur() float64 { return s.EndUs - s.StartUs }

// tracer keeps the replay's spans in memory. With on false it records
// nothing, which is how the replay measures the tracing overhead.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	req    string
	warmup bool
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans), Parent: parent, Name: name,
		StartUs: t.now(), Warmup: t.warmup})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].EndUs = t.now()
	}
}

// attr returns the span to annotate, or a scratch span when tracing is off.
func (t *tracer) attr(i int) *span {
	if i < 0 {
		return &span{}
	}
	return &t.spans[i]
}

// replayed is one request served in-process.
type replayed struct {
	index   int
	warmup  bool
	dur     time.Duration
	resps   []*server.SolveResponse // per job; nil where the job failed
	errs    []error
	results []solve.Result
	fp      string // the first job's fingerprint, which chains edits
}

// replayer serves requests in-process the way internal/server's runJob and
// handleBatch do, calling each layer's public function in the same order
// under a span. Session outcomes are predicted from the requests seen so
// far (a known instance is a hit, a known structure with new costs a
// delta, anything else a miss) and checked against Session.Stats.
type replayer struct {
	sess       *solve.Session
	seen       map[string]bool
	seenStruct map[string]bool
	outcomes   map[string]int
}

// Server defaults the replay mirrors: the Session budget and the per-request
// deadline secureview-serve uses when neither is configured.
const (
	sessionBytes   = 256 << 20
	requestTimeout = 30 * time.Second
)

func newReplayer() *replayer {
	return &replayer{
		sess:       solve.NewSessionBytes(sessionBytes),
		seen:       make(map[string]bool),
		seenStruct: make(map[string]bool),
		outcomes:   make(map[string]int),
	}
}

func (r *replayer) classify(j job) string {
	out := "miss"
	switch {
	case r.seen[j.key]:
		out = "hit"
	case r.seenStruct[j.structKey]:
		out = "delta"
	}
	r.seen[j.key] = true
	r.seenStruct[j.structKey] = true
	r.outcomes[out]++
	return out
}

// instanceRef mirrors SolveRequest's lowering onto gen.InstanceRef.
func instanceRef(sr *server.SolveRequest) gen.InstanceRef {
	ref := gen.InstanceRef{Spec: sr.Spec, CSV: sr.CSV, Corpus: sr.Corpus, Gamma: sr.Gamma}
	if sr.Generated != nil {
		ref.Class, ref.Seed = sr.Generated.Class, sr.Generated.Seed
	}
	return ref
}

// solveOptions mirrors SolveRequest's lowering onto solve.Options.
func (r *replayer) solveOptions(sr *server.SolveRequest) solve.Options {
	opts := solve.Options{Variant: secureview.Set, Timeout: requestTimeout}
	if o := sr.Options; o != nil {
		opts.NodeBudget, opts.MaxAttrs, opts.Workers = o.NodeBudget, o.MaxAttrs, o.Workers
		opts.Seed, opts.Trials = o.Seed, o.Trials
	}
	return opts
}

// resolve is gen.Resolve then Session.Problem, each under its own span.
func (r *replayer) resolve(ctx context.Context, tr *tracer, root int, sr *server.SolveRequest, j job) (*secureview.Problem, error) {
	if sr.Variant != "" && sr.Variant != "set" {
		return nil, fmt.Errorf("replay serves the set variant only, got %q", sr.Variant)
	}
	s := tr.begin("gen.resolve", root)
	rv, err := gen.Resolve(instanceRef(sr))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if rv.Problem != nil || rv.Instance.Recorded != nil {
		return nil, fmt.Errorf("replay serves workflow instances only (%s)", rv.Name)
	}
	outcome := r.classify(j)
	s = tr.begin("session.problem", root)
	it := rv.Instance
	p, err := r.sess.Problem(ctx, it.W, secureview.Set, it.Gamma, it.Costs, it.PrivatizeCosts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	a := tr.attr(s)
	a.Outcome = outcome
	for _, m := range p.Modules {
		a.Options += len(m.SetList)
	}
	sv, ok := solve.Get(sr.Solver)
	if !ok {
		return nil, fmt.Errorf("unknown solver %q", sr.Solver)
	}
	return p, sv.Supports(p, secureview.Set)
}

// fingerprintAndWarm is ProblemFingerprint, then Session.Warm when the
// request names a base.
func (r *replayer) fingerprintAndWarm(tr *tracer, root int, sr *server.SolveRequest, p *secureview.Problem, opts *solve.Options) string {
	s := tr.begin("session.fingerprint", root)
	fp := solve.ProblemFingerprint(p, secureview.Set)
	tr.end(s)
	if sr.Base != "" {
		s = tr.begin("warm.lookup", root)
		opts.Resume = r.sess.Warm(sr.Base)
		tr.end(s)
		tr.attr(s).Outcome = "miss"
		if opts.Resume != nil {
			tr.attr(s).Outcome = "hit"
		}
	}
	return fp
}

func (r *replayer) storeWarm(tr *tracer, root int, fp string, res solve.Result) {
	if res.Frontier == nil {
		return
	}
	s := tr.begin("warm.store", root)
	r.sess.StoreWarm(fp, res.Frontier)
	tr.end(s)
	tr.attr(s).FrontierBytes = res.Frontier.MemSize()
}

func (r *replayer) encode(tr *tracer, root int, v any) {
	s := tr.begin("server.encode", root)
	_ = json.NewEncoder(io.Discard).Encode(v) // the server ignores this error too
	tr.end(s)
}

// serve replays one request; base is the fingerprint a chained request
// names.
func (r *replayer) serve(tr *tracer, req request, base string) replayed {
	body := req.body
	if req.chained {
		body = withBase(body, base)
	}
	start := time.Now()
	root := tr.begin("request", -1)
	out := r.serveBody(tr, root, req, body)
	tr.end(root)
	out.dur = time.Since(start)
	return out
}

func (r *replayer) serveBody(tr *tracer, root int, req request, body []byte) replayed {
	out := replayed{
		resps:   make([]*server.SolveResponse, len(req.jobs)),
		errs:    make([]error, len(req.jobs)),
		results: make([]solve.Result, len(req.jobs)),
	}
	fail := func(err error) replayed {
		for i := range out.errs {
			out.errs[i] = err
		}
		r.encode(tr, root, server.ErrorResponse{Error: err.Error()})
		return out
	}
	s := tr.begin("server.decode", root)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var srs []server.SolveRequest
	var err error
	if req.path == "/v1/solve" {
		var sr server.SolveRequest
		err = dec.Decode(&sr)
		srs = []server.SolveRequest{sr}
	} else {
		var br server.BatchRequest
		err = dec.Decode(&br)
		srs = br.Jobs
	}
	tr.end(s)
	if err != nil {
		return fail(fmt.Errorf("decode: %w", err))
	}
	if len(srs) != len(req.jobs) {
		return fail(fmt.Errorf("decoded %d jobs, want %d", len(srs), len(req.jobs)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	probs := make([]*secureview.Problem, len(srs))
	for i := range srs {
		if probs[i], err = r.resolve(ctx, tr, root, &srs[i], req.jobs[i]); err != nil {
			out.errs[i] = err
		}
	}

	if req.path == "/v1/solve" {
		sr := &srs[0]
		if out.errs[0] != nil {
			return fail(out.errs[0])
		}
		opts := r.solveOptions(sr)
		out.fp = r.fingerprintAndWarm(tr, root, sr, probs[0], &opts)
		s = tr.begin("solve."+sr.Solver, root)
		res, err := solve.Solve(ctx, sr.Solver, probs[0], opts)
		tr.end(s)
		a := tr.attr(s)
		a.Solver, a.Counters = res.Solver, &res.Counters
		r.storeWarm(tr, root, out.fp, res)
		out.results[0], out.errs[0] = res, err
		if err != nil && !res.Partial {
			return fail(err)
		}
		out.resps[0] = wireResponse(res, out.fp)
		r.encode(tr, root, out.resps[0])
		return out
	}

	var jobs []solve.Job
	var idx []int
	fps := make([]string, len(srs))
	for i := range srs {
		if out.errs[i] != nil {
			continue
		}
		opts := r.solveOptions(&srs[i])
		fps[i] = r.fingerprintAndWarm(tr, root, &srs[i], probs[i], &opts)
		jobs = append(jobs, solve.Job{Name: fmt.Sprintf("job%d", i), Problem: probs[i], Solver: srs[i].Solver, Options: opts})
		idx = append(idx, i)
	}
	out.fp = fps[0]
	s = tr.begin("solve.batch", root)
	results := solve.SolveBatch(ctx, jobs, min(len(jobs), runtime.GOMAXPROCS(0)))
	tr.end(s)
	batch := server.BatchResponse{Results: make([]server.BatchResult, len(srs))}
	for k, jr := range results {
		i := idx[k]
		r.storeWarm(tr, root, fps[i], jr.Result)
		out.results[i], out.errs[i] = jr.Result, jr.Err
		if jr.Err == nil || jr.Result.Partial {
			out.resps[i] = wireResponse(jr.Result, fps[i])
			batch.Results[i] = server.BatchResult{Code: 200, Response: out.resps[i]}
		}
	}
	r.encode(tr, root, batch)
	return out
}

// wireResponse mirrors the server's Result → SolveResponse mapping.
func wireResponse(res solve.Result, fp string) *server.SolveResponse {
	status := "feasible"
	switch {
	case res.Partial:
		status = "partial"
	case res.Optimal:
		status = "optimal"
	}
	names := func(s interface{ Sorted() []string }) []string {
		if out := s.Sorted(); out != nil {
			return out
		}
		return []string{}
	}
	return &server.SolveResponse{
		Status: status, Solver: res.Solver, Variant: "set",
		Hidden: names(res.Solution.Hidden), Privatized: names(res.Solution.Privatized),
		Cost: res.Cost, Optimal: res.Optimal, Partial: res.Partial,
		Bound: server.BoundSpec{LP: res.Bound.LP, Factor: res.Bound.Factor, Theorem: res.Bound.Theorem},
		Counters: server.CountersSpec{Nodes: res.Counters.Nodes, Checked: res.Counters.Checked,
			Pruned: res.Counters.Pruned, MemoHits: res.Counters.MemoHits},
		Fingerprint: fp, Warm: res.Resumed,
	}
}

// replayRun is one in-process replay of a workload: the warm-up, then the
// requests the HTTP run sent.
type replayRun struct {
	tr   *tracer
	reqs []replayed // warm-up first, then the timed requests
	// afterWarmup and atEnd are the Session counters after the warm-up and
	// at the end; predicted counts the outcomes the replay expected.
	afterWarmup, atEnd solve.SessionStats
	predicted          map[string]int
}

// replay serves the warm-up and then the first n requests of the stream,
// one after another like the HTTP run's client, on a fresh Session.
func replay(wl *workload, n int, spansOn bool) *replayRun {
	r := newReplayer()
	run := &replayRun{tr: &tracer{on: spansOn, t0: time.Now(), warmup: true}}
	tr := run.tr
	last := make([]string, len(wl.warmup))
	for i, req := range wl.warmup {
		tr.req = fmt.Sprintf("warmup/%d", i)
		rr := r.serve(tr, req, "")
		rr.index, rr.warmup = i, true
		last[i] = rr.fp
		run.reqs = append(run.reqs, rr)
	}
	run.afterWarmup = r.sess.Stats()

	tr.warmup = false
	for i, req := range wl.stream.reqs[:n] {
		tr.req = strconv.Itoa(i)
		base := ""
		if req.chained {
			base = last[req.chain]
		}
		rr := r.serve(tr, req, base)
		rr.index = i
		if req.chained {
			last[req.chain] = rr.fp
		}
		run.reqs = append(run.reqs, rr)
	}
	run.atEnd = r.sess.Stats()
	run.predicted = r.outcomes
	return run
}
