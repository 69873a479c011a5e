package solve

import (
	"context"
	"fmt"
	"math/rand"

	"secureview/internal/search"
	"secureview/internal/secureview"
)

func init() {
	Register(exactSolver{})
	Register(engineSolver{})
	Register(greedySolver{})
	Register(lpSolver{})
}

// finish assembles the common Result fields.
func finish(name string, p *secureview.Problem, v secureview.Variant,
	sol secureview.Solution, optimal bool, b Bound, c Counters) Result {
	return Result{
		Solver:   name,
		Variant:  v,
		Solution: sol,
		Cost:     p.Cost(sol),
		Optimal:  optimal,
		Bound:    b,
		Counters: c,
	}
}

// partial wraps a solver error, attaching the incumbent when it is
// feasible: an exact search cut by its deadline carries its best solution
// out, while a search refused for its node budget has none.
func partial(name string, p *secureview.Problem, v secureview.Variant,
	sol secureview.Solution, c Counters, err error) (Result, error) {
	res := Result{Solver: name, Variant: v, Counters: c}
	if p.Feasible(sol, v) {
		res.Solution = sol
		res.Cost = p.Cost(sol)
		res.Partial = true
	}
	return res, err
}

// exactSolver proves optimality by branch and bound: over per-module
// option choices of the compiled problem for set constraints (the engine's
// (cost, lex) optimum, in microseconds on the served instances), over the
// useful attributes for cardinality constraints. Both refuse a search
// whose leaf count exceeds Options.NodeBudget before starting it.
type exactSolver struct{}

func (exactSolver) Name() string { return "exact" }

func (exactSolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Exact: true, Certified: true, Factor: "1"}
}

func (s exactSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("exact", p, v)
}

func (exactSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	run := secureview.ExactCardBBCtx
	if opts.Variant == secureview.Set {
		run = secureview.ExactSetCtx
	}
	sol, st, err := run(ctx, p, opts.NodeBudget)
	c := Counters{Nodes: st.Nodes}
	if err != nil {
		return partial("exact", p, opts.Variant, sol, c, err)
	}
	return finish("exact", p, opts.Variant, sol, true,
		Bound{Factor: 1, Theorem: "exhaustive (Theorems 5/6 hardness)"}, c), nil
}

// engineSolver runs the pruned parallel subset-search engine of
// internal/search over the problem's useful attributes, with feasibility as
// the (monotone) safety oracle. The problem is compiled once per solve
// (secureview.Compiled): every candidate check is then a few word
// operations per requirement option. It is exact, and the only
// registered solver that fans one request out over a worker pool (the
// workers share the compiled problem read-only) — but its cost model is
// per-attribute only, so it requires an all-private instance (privatization
// closure costs would make the objective non-linear in the hidden mask).
type engineSolver struct{}

func (engineSolver) Name() string { return "engine" }

func (engineSolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Exact: true, Certified: true,
		AllPrivateOnly: true, MaxUniverse: search.MaxAttrs, Factor: "1"}
}

func (s engineSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("engine", p, v)
}

func (engineSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	attrs := p.UsefulAttributes(opts.Variant)
	sp, err := search.NewSpace(attrs, p.Costs.Of)
	if err != nil {
		return Result{}, err
	}
	cp, err := p.Compile(opts.Variant, attrs)
	if err != nil {
		return Result{}, err
	}
	// Hiding more only helps private modules (Proposition 1 at the
	// requirement level), so safe visible sets are subset-closed: the
	// oracle is monotone, as the engine requires.
	all := sp.All()
	oracle := search.Oracle(func(visible search.Mask) (bool, error) {
		return cp.Feasible(uint64(all &^ visible)), nil
	})
	res, err := sp.MinCostCtx(ctx, oracle, search.Options{Parallelism: opts.Workers})
	c := Counters{
		Checked:      res.Stats.Checked,
		Pruned:       res.Stats.Pruned,
		OraclePasses: res.Stats.OraclePasses,
	}
	if err != nil {
		return Result{Solver: "engine", Variant: opts.Variant, Counters: c}, err
	}
	if !res.Found {
		return Result{Solver: "engine", Variant: opts.Variant, Counters: c},
			fmt.Errorf("solve: no feasible solution")
	}
	return finish("engine", p, opts.Variant, p.Complete(sp.NameSet(res.Hidden)), true,
		Bound{Factor: 1, Theorem: "exhaustive (cost, lex) scan over useful attributes, bounded by cost and index"}, c), nil
}

// greedySolver is the per-module cheapest-option union.
type greedySolver struct{}

func (greedySolver) Name() string { return "greedy" }

func (greedySolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Certified: true,
		Factor: "γ+1 (all-private; Theorem 7)"}
}

func (s greedySolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("greedy", p, v)
}

func (greedySolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	sol, err := secureview.GreedyCtx(ctx, p, opts.Variant)
	if err != nil {
		return partial("greedy", p, opts.Variant, sol, Counters{}, err)
	}
	b := Bound{}
	allPrivate := true
	for _, m := range p.Modules {
		if m.Public {
			allPrivate = false
			break
		}
	}
	if allPrivate {
		if mult := p.Multiplicity(); mult > 0 {
			b = Bound{Factor: float64(mult), Theorem: "Theorem 7 ((γ+1)-approximation via attribute multiplicity)"}
		}
	}
	return finish("greedy", p, opts.Variant, sol, false, b, Counters{}), nil
}

// lpSolver solves the variant's LP relaxation and rounds: the deterministic
// ℓmax threshold for set constraints (Theorem 6 / appendix C.4), the
// randomized O(log n) rounding of Algorithm 1 for cardinality constraints
// (Theorem 5).
type lpSolver struct{}

func (lpSolver) Name() string { return "lp" }

// lpMaxUniverse caps the LP solvers' attribute universe: the dense simplex
// tableau grows with (attrs × options)², and beyond ~64 attributes one
// solve takes long enough that the mega classes would stall the portfolio.
const lpMaxUniverse = 64

func (lpSolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Certified: true,
		MaxUniverse: lpMaxUniverse, Factor: "ℓmax vs LP (set); O(log n) w.h.p. (card)"}
}

func (s lpSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("lp", p, v)
}

func (lpSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Variant == secureview.Set {
		sol, lpVal, err := secureview.SetLPRoundCtx(ctx, p)
		if err != nil {
			return Result{Solver: "lp", Variant: opts.Variant}, err
		}
		return finish("lp", p, opts.Variant, sol, false,
			Bound{LP: lpVal, Factor: float64(p.LMax(secureview.Set)), Theorem: "Theorem 6 (ℓmax × LP)"},
			Counters{}), nil
	}
	sol, lpVal, err := secureview.CardinalityLPRoundCtx(ctx, p, secureview.RoundingOptions{
		Trials: opts.Trials,
		Rng:    rand.New(rand.NewSource(opts.Seed)),
	})
	if err != nil {
		return partial("lp", p, opts.Variant, sol, Counters{}, err)
	}
	return finish("lp", p, opts.Variant, sol, false,
		Bound{LP: lpVal, Theorem: "Theorem 5 (O(log n) w.h.p.)"}, Counters{}), nil
}
