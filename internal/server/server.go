// Package server is the HTTP/JSON front-end over the internal/solve
// registry: it turns the library's Session caching, SolveBatch sharding and
// end-to-end cancellation contract into a long-running network service.
//
// Endpoints:
//
//	GET  /healthz     liveness probe
//	GET  /v1/solvers  registered solvers with declared capabilities
//	GET  /v1/stats    shared-Session cache stats and the admission gauge
//	POST /v1/solve    one SolveRequest -> SolveResponse
//	POST /v1/batch    BatchRequest -> BatchResponse via solve.SolveBatch
//
// Admission: at most Config.MaxInFlight solver jobs run at once — a solve
// weighs one slot, a batch weighs min(jobs, BatchWorkers), its true
// concurrency; excess requests are rejected immediately with 429 and a
// Retry-After hint instead of queueing, so load sheds at the edge and
// in-flight work keeps its latency. Every admitted request gets a deadline (the client's
// timeoutMs clamped to Config.MaxTimeout, or Config.DefaultTimeout) that
// maps to solve.Options.Timeout and gates the Session derivation, so a
// request expires within one pruning epoch wherever it is. A deadline
// expiry with a feasible incumbent returns 206 with status "partial" — the
// HTTP analog of cmd/secureview's exit code 3 — and one without returns
// 504.
//
// Edit chains: every solve response carries the problem's structure
// fingerprint (costs excluded). Every solve runs cold; what makes a
// cost-only edit cheap is the Session, which re-costs the cached problem
// instead of re-deriving it. Three wire fields outlive the retired
// warm-start tier, for clients and the served-path benchmark that still
// name them: a request's "base" (the fingerprint to warm-start from) is
// accepted and ignored, and SolveResponse.Warm and CountersSpec.MemoHits
// are always zero, so "warm" and "memoHits" never appear on the wire.
//
// The shared Session is size-accounted: derived problems are evicted
// least-recently-used beyond Config.SessionBytes, so serving an unbounded
// stream of distinct workflows holds steady-state memory (watch /v1/stats
// to size the budget).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"secureview/internal/gen"
	_ "secureview/internal/gen/corpus" // register the corpus-ID resolver
	"secureview/internal/ring"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// Config sizes the server. The zero value is usable; every field has a
// production-minded default.
type Config struct {
	// MaxInFlight bounds concurrently running solver jobs (default
	// 2×GOMAXPROCS); a solve weighs 1 slot, a batch min(jobs,
	// BatchWorkers). Requests that cannot claim their weight get 429.
	// Must be ≥ BatchWorkers for full-width batches to be admissible.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 5m).
	MaxTimeout time.Duration
	// SessionBytes is the shared Session's LRU byte budget
	// (default 256 MiB; <0 = unbounded).
	SessionBytes int64
	// BatchWorkers is the SolveBatch pool size (default GOMAXPROCS).
	BatchWorkers int
	// MaxBatchJobs bounds jobs per batch request (default 64).
	MaxBatchJobs int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// SnapshotPath, when non-empty, enables session snapshot/restore: the
	// server restores the file on boot (serving 503 from /readyz until the
	// restore settles), rewrites it every SnapshotEvery and on shutdown, and
	// accepts POST /v1/snapshot for on-demand writes. A missing, corrupt or
	// version-bumped file restores to an empty session — logged, never fatal.
	SnapshotPath string
	// SnapshotEvery is the periodic snapshot interval when SnapshotPath is
	// set (default 5m; <0 disables the ticker, leaving boot/shutdown/manual
	// snapshots only).
	SnapshotEvery time.Duration
	// Self and Peers enable shard mode: Peers lists every replica's base URL
	// (scheme://host:port, self included or not — it is deduplicated) and
	// Self names this replica's own entry. Request fingerprints are routed
	// over a consistent-hash ring; a replica that does not own a fingerprint
	// proxies the request to the owner, so each cache entry lives (hot) on
	// exactly one replica. Empty Peers is single-node mode.
	Self  string
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.SessionBytes == 0 {
		c.SessionBytes = 256 << 20
	}
	if c.SessionBytes < 0 {
		c.SessionBytes = 0 // unbounded
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 5 * time.Minute
	}
	return c
}

// Server serves the solve registry over HTTP. Create with New; safe for
// concurrent use.
type Server struct {
	cfg      Config
	sess     *solve.Session
	sem      chan struct{}
	inFlight atomic.Int64
	start    time.Time

	// ready flips once boot restore has settled (immediately when no
	// snapshot path is configured); /readyz serves 503 until then.
	ready atomic.Bool

	// Snapshot bookkeeping: writes are serialized by snapMu; the atomics
	// feed /v1/stats.
	snapMu        sync.Mutex
	lastSnapNanos atomic.Int64
	lastSnapBytes atomic.Int64
	restored      atomic.Int64
	restoreHit    atomic.Bool

	// Shard mode: nil ring means single-node. The proxy client carries
	// forwarded solves to their owner; the counters feed /v1/stats.
	ring       *ring.Ring
	client     *http.Client
	proxied    atomic.Int64
	forwarded  atomic.Int64
	fallbacks  atomic.Int64
	ownedLocal atomic.Int64
}

// New builds a server with its own size-capped Session. Shard mode
// (Config.Peers) errors surface here because a malformed ring must refuse
// to start, not quietly serve unsharded.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		sess:  solve.NewSessionBytes(cfg.SessionBytes),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
	}
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, fmt.Errorf("server: -peers requires -self")
		}
		r, err := ring.New(cfg.Self, cfg.Peers)
		if err != nil {
			return nil, err
		}
		s.ring = r
		s.client = &http.Client{Timeout: cfg.MaxTimeout + 10*time.Second}
	}
	// With no snapshot to restore the server is ready the moment it can
	// accept connections.
	if cfg.SnapshotPath == "" {
		s.ready.Store(true)
	}
	return s, nil
}

// MustNew is New panicking on error, for tests and static configurations.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Session exposes the shared cache (stats, tests).
func (s *Server) Session() *solve.Session { return s.sess }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "restoring")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if s.cfg.SnapshotPath == "" {
			writeError(w, http.StatusConflict, "no snapshot path configured (-snapshot-path)")
			return
		}
		n, err := s.WriteSnapshot()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Path: s.cfg.SnapshotPath, Bytes: n})
	})
	mux.HandleFunc("/v1/solvers", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, SolversResponse{Solvers: solve.Solvers()})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, s.stats())
	})
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	return mux
}

// admit claims n admission slots without queueing, so MaxInFlight bounds
// concurrently running solver jobs rather than HTTP requests: a single
// solve weighs 1, a batch weighs the number of jobs it can actually run at
// once. The release func is nil when fewer than n slots are free (partial
// claims are rolled back before returning).
func (s *Server) admit(n int) func() {
	for taken := 0; taken < n; taken++ {
		select {
		case s.sem <- struct{}{}:
		default:
			for ; taken > 0; taken-- {
				<-s.sem
			}
			return nil
		}
	}
	s.inFlight.Add(int64(n))
	released := false
	return func() {
		if !released {
			released = true
			s.inFlight.Add(-int64(n))
			for i := 0; i < n; i++ {
				<-s.sem
			}
		}
	}
}

// retryAfter derives the Retry-After hint for a 429: the rejected request's
// weight scaled by how saturated the admission gate is (in-flight weight
// over capacity), so a single solve against a briefly-full server retries in
// a second while a full-width batch against a loaded one backs off longer.
// Clamped to [1, 30] seconds — the ceiling keeps a pathological gauge
// reading from parking clients for minutes.
func (s *Server) retryAfter(need int) string {
	capacity := int64(s.cfg.MaxInFlight)
	inFlight := s.inFlight.Load()
	secs := (int64(need)*inFlight + capacity - 1) / capacity
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// timeout clamps the client's requested deadline.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if owner, remote := s.routeRemote(r, &req); remote {
		if s.proxySolve(w, owner, &req) {
			return
		}
		// Transport failure to the owner: serve locally rather than fail the
		// request — the cache entry is rebuildable, only its locality is lost.
	}
	release := s.admit(1)
	if release == nil {
		w.Header().Set("Retry-After", s.retryAfter(1))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server saturated (%d job slots in use)", s.cfg.MaxInFlight))
		return
	}
	defer release()

	d := s.timeout(req.TimeoutMs)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	code, resp, errMsg := s.runJob(ctx, &req, d)
	if errMsg != "" {
		writeError(w, code, errMsg)
		return
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d jobs exceeds the %d-job cap", len(req.Jobs), s.cfg.MaxBatchJobs))
		return
	}
	// A batch runs at most min(jobs, BatchWorkers) solver jobs at once, so
	// that is its admission weight — MaxInFlight bounds real concurrency
	// whether load arrives as single solves or batches.
	weight := len(req.Jobs)
	if weight > s.cfg.BatchWorkers {
		weight = s.cfg.BatchWorkers
	}
	release := s.admit(weight)
	if release == nil {
		w.Header().Set("Retry-After", s.retryAfter(weight))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server saturated (batch needs %d of %d job slots)", weight, s.cfg.MaxInFlight))
		return
	}
	defer release()

	// The batch as a whole runs under the server's ceiling; each job
	// carries its own clamped deadline through solve.Options.Timeout, and
	// each job's Session derivation is gated by that same deadline, so a
	// job naming a heavy workflow expires to its own 504 instead of
	// stalling the batch. Resolution fans out over the same worker count
	// as the solve pool — derivation dominates end-to-end latency, and the
	// shared Session singleflights duplicate fingerprints across workers.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()

	type resolvedJob struct {
		v      secureview.Variant
		p      *secureview.Problem
		code   int
		errMsg string
		// done carries a proxied job's finished result: in shard mode each
		// job routes independently (one batch can span every owner), so
		// non-owned jobs are forwarded as single solves from the resolution
		// worker and skip the local pipeline entirely.
		done *BatchResult
	}
	resolved := make([]resolvedJob, len(req.Jobs))
	workers := weight
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(req.Jobs) {
					return
				}
				jr := &req.Jobs[i]
				if owner, remote := s.routeRemote(r, jr); remote {
					if br, ok := s.proxyBatchJob(owner, jr); ok {
						resolved[i] = resolvedJob{done: br}
						continue
					}
					// Owner unreachable: resolve and solve locally below.
				}
				jctx, jcancel := context.WithTimeout(ctx, s.timeout(jr.TimeoutMs))
				v, p, code, errMsg := s.resolve(jctx, jr)
				jcancel()
				resolved[i] = resolvedJob{v: v, p: p, code: code, errMsg: errMsg}
			}
		}()
	}
	wg.Wait()

	out := BatchResponse{Results: make([]BatchResult, len(req.Jobs))}
	jobs := make([]solve.Job, 0, len(req.Jobs))
	jobIdx := make([]int, 0, len(req.Jobs))
	jobFps := make([]string, 0, len(req.Jobs))
	for i, rj := range resolved {
		if rj.done != nil {
			out.Results[i] = *rj.done
			continue
		}
		if rj.errMsg != "" {
			out.Results[i] = BatchResult{Code: rj.code, Error: rj.errMsg}
			continue
		}
		jr := &req.Jobs[i]
		opts := jr.solveOptions(rj.v)
		opts.Timeout = s.timeout(jr.TimeoutMs)
		jobs = append(jobs, solve.Job{
			Name:    fmt.Sprintf("job%d", i),
			Problem: rj.p,
			Solver:  jr.Solver,
			Options: opts,
		})
		jobIdx = append(jobIdx, i)
		jobFps = append(jobFps, solve.ProblemFingerprint(rj.p, rj.v))
	}
	for j, res := range solve.SolveBatch(ctx, jobs, workers) {
		i := jobIdx[j]
		elapsed := int64(0) // per-job wall clock is folded into the batch
		code, resp, errMsg := mapOutcome(res.Result, res.Err, elapsed)
		if resp != nil {
			resp.Fingerprint = jobFps[j]
		}
		out.Results[i] = BatchResult{Code: code, Response: resp, Error: errMsg}
	}
	writeJSON(w, http.StatusOK, out)
}

// runJob resolves and solves one request, returning the HTTP status, the
// response on success/partial, or an error message. The request's problem
// fingerprint is computed from the resolved instance, never trusted from
// the client.
func (s *Server) runJob(ctx context.Context, req *SolveRequest, d time.Duration) (int, *SolveResponse, string) {
	v, p, code, errMsg := s.resolve(ctx, req)
	if errMsg != "" {
		return code, nil, errMsg
	}
	opts := req.solveOptions(v)
	opts.Timeout = d
	start := time.Now()
	res, err := solve.Solve(ctx, req.Solver, p, opts)
	code, resp, errMsg := mapOutcome(res, err, time.Since(start).Milliseconds())
	if resp != nil {
		resp.Fingerprint = solve.ProblemFingerprint(p, v)
	}
	return code, resp, errMsg
}

// resolve materializes the request's problem through the canonical
// gen.InstanceRef pipeline (spec document, generated class, provenance
// CSV, corpus ID). Workflow-backed instances derive through the shared
// Session — except CSV-backed ones, whose requirement lists depend on the
// recorded log that Session cache keys do not capture, so they derive
// directly (set variant only; DeriveCardProblem has no partial-log form).
func (s *Server) resolve(ctx context.Context, req *SolveRequest) (secureview.Variant, *secureview.Problem, int, string) {
	v, err := parseVariant(req.Variant)
	if err != nil {
		return 0, nil, http.StatusBadRequest, err.Error()
	}
	sv, ok := solve.Get(req.Solver)
	if !ok {
		return 0, nil, http.StatusBadRequest,
			fmt.Sprintf("unknown solver %q (have %v)", req.Solver, solve.Names())
	}

	var p *secureview.Problem
	rv, err := gen.Resolve(req.instanceRef())
	switch {
	case err != nil:
	case rv.Problem != nil:
		// Abstract instances carry their requirement lists directly; Γ and
		// the Session do not apply.
		p = rv.Problem
	case rv.Instance.Recorded != nil:
		if v == secureview.Cardinality {
			return 0, nil, http.StatusBadRequest,
				"csv instances derive from the recorded log (partial-log semantics); only the set variant is servable"
		}
		p, err = rv.Instance.Derive()
	default:
		it := rv.Instance
		p, err = s.sess.Problem(ctx, it.W, v, it.Gamma, it.Costs, it.PrivatizeCosts)
	}
	switch {
	case err == nil:
	case errors.Is(err, secureview.ErrInfeasible):
		return 0, nil, http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return 0, nil, http.StatusGatewayTimeout, "deadline expired while deriving the instance"
	default:
		return 0, nil, http.StatusBadRequest, err.Error()
	}
	if err := sv.Supports(p, v); err != nil {
		return 0, nil, http.StatusBadRequest, err.Error()
	}
	return v, p, http.StatusOK, ""
}

// mapOutcome turns a solve result into (HTTP status, response, error):
// 200 for a completed solve; 206 + status "partial" whenever the solver
// carried a feasible incumbent out of a deadline (the exit-code-3
// analog); 504 for an empty-handed deadline; 422 for a search the exact
// solver refused up front because its leaves exceed the client-requested
// node budget, which never carries an incumbent; 500 for anything else.
func mapOutcome(res solve.Result, err error, elapsedMs int64) (int, *SolveResponse, string) {
	switch {
	case err == nil:
		return http.StatusOK, toResponse(res, elapsedMs), ""
	case res.Partial:
		return http.StatusPartialContent, toResponse(res, elapsedMs), ""
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, nil, "deadline expired with no feasible incumbent"
	case errors.Is(err, secureview.ErrNodeBudget):
		return http.StatusUnprocessableEntity, nil, err.Error()
	default:
		return http.StatusInternalServerError, nil, err.Error()
	}
}

func toResponse(res solve.Result, elapsedMs int64) *SolveResponse {
	status := "feasible"
	switch {
	case res.Partial:
		status = "partial"
	case res.Optimal:
		status = "optimal"
	}
	return &SolveResponse{
		Status:     status,
		Solver:     res.Solver,
		Variant:    variantName(res.Variant),
		Hidden:     sortedNames(res.Solution.Hidden),
		Privatized: sortedNames(res.Solution.Privatized),
		Cost:       res.Cost,
		Optimal:    res.Optimal,
		Partial:    res.Partial,
		Bound: BoundSpec{
			LP:      res.Bound.LP,
			Factor:  res.Bound.Factor,
			Theorem: res.Bound.Theorem,
		},
		Counters: CountersSpec{
			Nodes:   res.Counters.Nodes,
			Checked: res.Counters.Checked,
			Pruned:  res.Counters.Pruned,
		},
		ElapsedMs: elapsedMs,
	}
}

// readJSON decodes a POST body, enforcing method, size and strict fields.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
