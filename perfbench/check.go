package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"secureview/internal/gen"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
)

// reference is the library's own answer for one instance, computed outside
// every timed window: a fresh derivation (no Session), the exact solver's
// optimum on it, and its warm-start fingerprint.
type reference struct {
	p   *secureview.Problem
	opt float64
	fp  string
	err error
}

// references caches reference answers by job key.
type references struct {
	mu   sync.Mutex
	refs map[string]*reference
}

func newReferences() *references {
	return &references{refs: make(map[string]*reference)}
}

func (rs *references) get(key string) *reference {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.refs[key]
}

// ensure computes the references of every job not yet cached, on
// GOMAXPROCS goroutines.
func (rs *references) ensure(reqs []request) {
	var todo []job
	rs.mu.Lock()
	for _, r := range reqs {
		for _, j := range r.jobs {
			if _, ok := rs.refs[j.key]; !ok {
				rs.refs[j.key] = nil
				todo = append(todo, j)
			}
		}
	}
	rs.mu.Unlock()

	work := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				ref := computeReference(j.ref)
				rs.mu.Lock()
				rs.refs[j.key] = ref
				rs.mu.Unlock()
			}
		}()
	}
	for _, j := range todo {
		work <- j
	}
	close(work)
	wg.Wait()
}

func computeReference(ir gen.InstanceRef) *reference {
	rv, err := gen.Resolve(ir)
	if err != nil {
		return &reference{err: fmt.Errorf("reference: resolve: %w", err)}
	}
	p, err := rv.Derive()
	if err != nil {
		return &reference{err: fmt.Errorf("reference: derive: %w", err)}
	}
	res, err := solve.Solve(context.Background(), "exact", p, solve.Options{Variant: secureview.Set})
	if err != nil {
		return &reference{err: fmt.Errorf("reference: exact solve: %w", err)}
	}
	return &reference{p: p, opt: res.Cost, fp: solve.ProblemFingerprint(p, secureview.Set)}
}

// relTol absorbs float rounding between sums of different attribute sets;
// sums of the same set compare exactly (Costs.Sum is order-deterministic).
const relTol = 1e-9

// checkAnswer checks one solve response against the job's reference: the
// hidden set is feasible, the reported cost is that set's cost, the
// fingerprint is the problem's; engine and exact answers cost exactly the
// optimum, and the others at least the optimum and within their
// certificate's factor of the optimum and of the LP bound.
func checkAnswer(ref *reference, solver string, resp *server.SolveResponse) error {
	if ref == nil {
		return errors.New("no reference answer")
	}
	if ref.err != nil {
		return ref.err
	}
	sol := secureview.Solution{
		Hidden:     relation.NewNameSet(resp.Hidden...),
		Privatized: relation.NewNameSet(resp.Privatized...),
	}
	if !ref.p.Feasible(sol, secureview.Set) {
		return fmt.Errorf("%s: hidden %v privatized %v is infeasible", solver, resp.Hidden, resp.Privatized)
	}
	if c := ref.p.Cost(sol); c != resp.Cost {
		return fmt.Errorf("%s: reported cost %v but the hidden set costs %v", solver, resp.Cost, c)
	}
	if resp.Fingerprint != ref.fp {
		return fmt.Errorf("%s: fingerprint %q, want %q", solver, resp.Fingerprint, ref.fp)
	}
	slack := relTol * math.Max(1, math.Abs(ref.opt))
	switch solver {
	case "engine", "exact":
		if resp.Cost != ref.opt {
			return fmt.Errorf("%s: cost %v, exact optimum %v", solver, resp.Cost, ref.opt)
		}
		return nil
	}
	if resp.Cost < ref.opt-slack {
		return fmt.Errorf("%s: cost %v below the exact optimum %v", solver, resp.Cost, ref.opt)
	}
	if f := resp.Bound.Factor; f > 0 {
		if resp.Cost > f*ref.opt+slack {
			return fmt.Errorf("%s: cost %v exceeds factor %v × optimum %v", solver, resp.Cost, f, ref.opt)
		}
		if lp := resp.Bound.LP; lp > 0 && resp.Cost > f*lp+slack {
			return fmt.Errorf("%s: cost %v exceeds factor %v × LP bound %v", solver, resp.Cost, f, lp)
		}
	}
	return nil
}

// checkResponse checks an HTTP reply to r: a 2xx status and a correct
// answer for every job.
func checkResponse(refs *references, r request, code int, body []byte) error {
	if code < 200 || code > 299 {
		line, _, _ := bytes.Cut(body, []byte("\n"))
		return fmt.Errorf("HTTP %d: %.200s", code, line)
	}
	if r.path == "/v1/solve" {
		var resp server.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		return checkAnswer(refs.get(r.jobs[0].key), r.jobs[0].solver, &resp)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding batch response: %w", err)
	}
	if len(resp.Results) != len(r.jobs) {
		return fmt.Errorf("batch: %d results for %d jobs", len(resp.Results), len(r.jobs))
	}
	for i, res := range resp.Results {
		if res.Response == nil {
			return fmt.Errorf("batch job %d: HTTP %d: %s", i, res.Code, res.Error)
		}
		if err := checkAnswer(refs.get(r.jobs[i].key), r.jobs[i].solver, res.Response); err != nil {
			return fmt.Errorf("batch job %d: %w", i, err)
		}
	}
	return nil
}
