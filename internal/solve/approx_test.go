package solve_test

// Tests for the certified approximation tier and the portfolio meta-solver:
// the mega regime (universes far beyond 2^k exact search) must yield
// feasible, certificate-true solutions fast; the small regime must still
// yield proven optima through the portfolio; and the portfolio runs its
// fixed plan and nothing else.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// TestApproxCertifiedOnMega: on every mega class, the exact solver declines
// with the typed budget error while each applicable approximation solver
// returns a feasible solution whose certificate holds arithmetically —
// cost ≤ Factor × LP with a positive lower bound — well inside the 5s
// acceptance budget per solver.
func TestApproxCertifiedOnMega(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.MegaProblemClasses() {
		p := gen.Problem(pc.Cfg, 1)
		if k := len(p.UsefulAttributes(secureview.Set)); k < 40 {
			t.Fatalf("%s: universe %d is not mega (want ≥ 40)", pc.Name, k)
		}
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			if p.Validate(v) != nil {
				continue
			}
			vn := map[secureview.Variant]string{secureview.Set: "set", secureview.Cardinality: "card"}[v]
			if _, err := solve.Solve(ctx, "exact", p, solve.Options{Variant: v}); !errors.Is(err, secureview.ErrNodeBudget) {
				t.Errorf("%s/%s: exact err = %v, want typed ErrNodeBudget", pc.Name, vn, err)
			}
			for _, solver := range []string{"approx-setcover", "approx-labelcover"} {
				s, _ := solve.Get(solver)
				if s.Supports(p, v) != nil {
					continue
				}
				start := time.Now()
				res, err := solve.Solve(ctx, solver, p, solve.Options{Variant: v})
				elapsed := time.Since(start)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", pc.Name, vn, solver, err)
				}
				if elapsed > 5*time.Second {
					t.Errorf("%s/%s: %s took %v (budget 5s)", pc.Name, vn, solver, elapsed)
				}
				if !p.Feasible(res.Solution, v) {
					t.Errorf("%s/%s: %s solution infeasible", pc.Name, vn, solver)
				}
				if res.Bound.Factor <= 0 || res.Bound.LP <= 0 {
					t.Errorf("%s/%s: %s returned no certificate: %+v", pc.Name, vn, solver, res.Bound)
				}
				if gap := solve.CertifiedGap(res); gap > 1e-6*(1+res.Cost) {
					t.Errorf("%s/%s: %s cost %g breaks its certificate %g×%g (gap %g)",
						pc.Name, vn, solver, res.Cost, res.Bound.Factor, res.Bound.LP, gap)
				}
			}
		}
	}
}

// TestPortfolioOptimalOnSmallClasses: whenever an exact step can finish,
// the portfolio must return its proven optimum, tagged with the winning
// inner solver.
func TestPortfolioOptimalOnSmallClasses(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.ProblemClasses() {
		for seed := int64(0); seed < 3; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
				if p.Validate(v) != nil {
					continue
				}
				exact, err := solve.Solve(ctx, "exact", p, solve.Options{Variant: v})
				if err != nil {
					t.Fatalf("%s/%d: exact: %v", pc.Name, seed, err)
				}
				res, err := solve.Solve(ctx, "portfolio", p, solve.Options{Variant: v})
				if err != nil {
					t.Fatalf("%s/%d: portfolio: %v", pc.Name, seed, err)
				}
				if !res.Optimal {
					t.Errorf("%s/%d: portfolio did not prove optimality on a small instance", pc.Name, seed)
				}
				if d := res.Cost - exact.Cost; d > 1e-9*(1+res.Cost) || -d > 1e-9*(1+res.Cost) {
					t.Errorf("%s/%d: portfolio cost %g != exact optimum %g", pc.Name, seed, res.Cost, exact.Cost)
				}
				if len(res.Solver) <= len("portfolio/") || res.Solver[:len("portfolio/")] != "portfolio/" {
					t.Errorf("%s/%d: portfolio result not tagged with winner: %q", pc.Name, seed, res.Solver)
				}
				if !p.Feasible(res.Solution, v) {
					t.Errorf("%s/%d: portfolio solution infeasible", pc.Name, seed)
				}
			}
		}
	}
}

// TestPortfolioCertifiedOnMega: with no exact finisher, the portfolio
// returns the cheapest certified result, and it satisfies its own
// certificate.
func TestPortfolioCertifiedOnMega(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.MegaProblemClasses() {
		p := gen.Problem(pc.Cfg, 2)
		start := time.Now()
		res, err := solve.Solve(ctx, "portfolio", p, solve.Options{Variant: secureview.Set})
		if err != nil {
			t.Fatalf("%s: portfolio: %v", pc.Name, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("%s: portfolio took %v on a mega instance", pc.Name, elapsed)
		}
		if res.Optimal {
			t.Errorf("%s: portfolio claims optimality on a mega instance (solver %s)", pc.Name, res.Solver)
		}
		if !p.Feasible(res.Solution, secureview.Set) {
			t.Errorf("%s: portfolio solution infeasible", pc.Name)
		}
		if res.Bound.Factor <= 0 || res.Bound.LP <= 0 {
			t.Errorf("%s: portfolio returned an uncertified result: %+v", pc.Name, res.Bound)
		}
		if gap := solve.CertifiedGap(res); gap > 1e-6*(1+res.Cost) {
			t.Errorf("%s: portfolio cost %g breaks certificate %g×%g", pc.Name, res.Cost, res.Bound.Factor, res.Bound.LP)
		}
	}
}

// countingProbe is a registered solver that accepts every instance and
// counts its runs.
type countingProbe struct {
	runs atomic.Int64
}

func (c *countingProbe) Name() string { return "test-counting-probe" }

func (c *countingProbe) Capabilities() solve.Capabilities {
	return solve.Capabilities{Cardinality: true, Set: true, Exact: true, Certified: true, Factor: "1"}
}

func (c *countingProbe) Supports(p *secureview.Problem, v secureview.Variant) error { return nil }

func (c *countingProbe) Solve(ctx context.Context, p *secureview.Problem, opts solve.Options) (solve.Result, error) {
	c.runs.Add(1)
	return solve.Result{}, errors.New("the probe never answers")
}

// TestPortfolioRunsOnlyItsPlan: a registered solver outside the plan is
// never run, whether the exact tier proves optimality (small instances) or
// the plan reaches its certified tier (mega instances), and the answer is
// the same with or without it registered.
func TestPortfolioRunsOnlyItsPlan(t *testing.T) {
	ctx := context.Background()
	instances := []struct {
		p *secureview.Problem
		v secureview.Variant
	}{
		{gen.Problem(gen.ProblemConfig{Modules: 4}, 1), secureview.Set},
		{gen.Problem(gen.ProblemConfig{Modules: 4}, 1), secureview.Cardinality},
		{gen.Problem(gen.MegaProblemClasses()[0].Cfg, 1), secureview.Set},
	}
	var want []solve.Result
	for _, in := range instances {
		res, err := solve.Solve(ctx, "portfolio", in.p, solve.Options{Variant: in.v})
		if err != nil {
			t.Fatalf("portfolio: %v", err)
		}
		want = append(want, res)
	}
	probe := &countingProbe{}
	solve.Register(probe)
	t.Cleanup(func() { solve.Deregister(probe.Name()) })
	for i, in := range instances {
		res, err := solve.Solve(ctx, "portfolio", in.p, solve.Options{Variant: in.v})
		if err != nil {
			t.Fatalf("portfolio with the probe registered: %v", err)
		}
		if res.Solver != want[i].Solver || res.Cost != want[i].Cost || !res.Solution.Hidden.Equal(want[i].Solution.Hidden) {
			t.Errorf("instance %d: %s at %v hiding %v, without the probe %s at %v hiding %v", i,
				res.Solver, res.Cost, res.Solution.Hidden.Sorted(), want[i].Solver, want[i].Cost, want[i].Solution.Hidden.Sorted())
		}
	}
	if n := probe.runs.Load(); n != 0 {
		t.Fatalf("the portfolio ran a solver outside its plan %d times", n)
	}
}

// TestApproxSolversCtxCancelled: the approximation tier observes a dead
// context like every other registered solver — a clean ctx.Err, no partial
// garbage. Runs against a mega instance so the reduction and greedy loops
// actually start. (Name matches the CI cancellation smoke's 'Deadline|Ctx'
// filter.)
func TestApproxSolversCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.Problem(gen.MegaProblemClasses()[0].Cfg, 1)
	for _, solver := range []string{"approx-setcover", "approx-labelcover", "portfolio"} {
		if _, err := solve.Solve(ctx, solver, p, solve.Options{Variant: secureview.Set}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", solver, err)
		}
	}
}

// TestPortfolioDeadlineOnMega: a 50ms deadline reaches every step on a
// mega instance and surfaces promptly. A certified result that happened to
// finish in time is acceptable; an error must be the deadline, typed.
func TestPortfolioDeadlineOnMega(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p := gen.Problem(gen.MegaProblemClasses()[1].Cfg, 3)
	start := time.Now()
	_, err := solve.Solve(ctx, "portfolio", p, solve.Options{Variant: secureview.Cardinality})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("portfolio took %v to notice a 50ms deadline", elapsed)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
	}
}
