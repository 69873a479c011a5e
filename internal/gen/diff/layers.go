package diff

import (
	"context"
	"math"

	"secureview/internal/relation"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// compiledMaskLimit bounds the universes whose every mask checkLayers
// compares: 2^16 feasibility tests per (problem, variant, universe).
const compiledMaskLimit = 16

// checkLayers pins the engine solver's compiled layer to the NameSet
// reference it replaced, for one (problem, variant):
//
//   - Compiled.Feasible ≡ Problem.Feasible with nothing privatized, on
//     every mask of the full attribute universe and of the useful-attribute
//     universe, each when it has at most compiledMaskLimit attributes
//     (counted in CompiledMasks);
//   - where the engine applies, the registry engine ≡ the same search over
//     a Problem.Feasible oracle at one worker: hidden set, cost bits and
//     Checked/Pruned/OraclePasses, all identical;
//   - for the set variant, the exact solver's optimum ≡ that engine's, or
//     ≡ a brute force where the engine does not apply (checkExactLayer).
//
// The runs here are layer re-runs, not solver-matrix runs, so they are not
// counted in SolverRuns.
func (r *Result) checkLayers(ctx context.Context, name string, p *secureview.Problem, v secureview.Variant) {
	useful := p.UsefulAttributes(v)
	all := p.Attributes()
	universes := [][]string{all}
	if len(useful) != len(all) {
		universes = append(universes, useful)
	}
	for _, attrs := range universes {
		if len(attrs) > compiledMaskLimit {
			continue
		}
		cp, err := p.Compile(v, attrs)
		if err != nil {
			r.violatef("%s: compile over %d attributes: %v", name, len(attrs), err)
			continue
		}
		sp, err := search.NewSpace(attrs, nil)
		if err != nil {
			r.violatef("%s: %v", name, err)
			continue
		}
		none := relation.NewNameSet()
		for h := search.Mask(0); h <= sp.All(); h++ {
			want := p.Feasible(secureview.Solution{Hidden: sp.NameSet(h), Privatized: none}, v)
			if cp.Feasible(uint64(h)) != want {
				r.violatef("%s: compiled feasibility of %v is %v, reference %v",
					name, sp.Names(h), !want, want)
				break
			}
			r.CompiledMasks++
		}
	}

	eng := r.checkEngineLayer(ctx, name, p, v, useful)
	if v == secureview.Set {
		r.checkExactLayer(ctx, name, p, useful, eng)
	}
}

// checkEngineLayer runs the engine solver at one worker, where it applies,
// and checks it against the same search over the Problem.Feasible
// reference oracle. It returns the engine's result when both runs
// finished.
func (r *Result) checkEngineLayer(ctx context.Context, name string, p *secureview.Problem,
	v secureview.Variant, useful []string) *solve.Result {
	if eng, ok := solve.Get("engine"); !ok || eng.Supports(p, v) != nil {
		return nil
	}
	got, errG := solve.Solve(ctx, "engine", p, solve.Options{Variant: v, Workers: 1})
	want, sp, errW := referenceEngine(ctx, p, v, useful)
	if errG != nil || errW != nil {
		if cancelled(errG) || cancelled(errW) {
			r.Skips++
			return nil
		}
		r.violatef("%s: engine layer check failed: compiled=%v reference=%v", name, errG, errW)
		return nil
	}
	hidden := sp.NameSet(want.Hidden)
	wantCost := p.Cost(p.Complete(hidden))
	c := got.Counters
	switch {
	case !want.Found:
		r.violatef("%s: reference engine found no solution", name)
	case !got.Solution.Hidden.Equal(hidden) ||
		math.Float64bits(got.Cost) != math.Float64bits(wantCost):
		r.violatef("%s: compiled engine optimum %v (%v) != reference %v (%v)",
			name, got.Solution.Hidden.Sorted(), got.Cost, hidden.Sorted(), wantCost)
	case c.Checked != want.Stats.Checked || c.Pruned != want.Stats.Pruned ||
		c.OraclePasses != want.Stats.OraclePasses:
		r.violatef("%s: compiled engine counters %d/%d/%d != reference %d/%d/%d (checked/pruned/passes)",
			name, c.Checked, c.Pruned, c.OraclePasses,
			want.Stats.Checked, want.Stats.Pruned, want.Stats.OraclePasses)
	}
	return &got
}

// checkExactLayer pins the exact set solver to the (cost, lex) optimum: to
// the single-worker engine's answer eng where the engine applies, and
// otherwise, for universes of at most compiledMaskLimit attributes, to a
// brute force over every subset, completed with its privatization closure
// and ranked by Problem.Cost and search.Space.LexLess. Hidden and
// privatized sets must match and the costs agree to the bit (counted in
// ExactPinned).
func (r *Result) checkExactLayer(ctx context.Context, name string, p *secureview.Problem,
	useful []string, eng *solve.Result) {
	var want secureview.Solution
	var wantCost float64
	switch {
	case eng != nil:
		want, wantCost = eng.Solution, eng.Cost
	case len(useful) <= compiledMaskLimit && !engineApplies(p):
		var ok bool
		if want, wantCost, ok = bruteForceSet(p, useful); !ok {
			return // infeasible: the solver matrix reports the exact solver's error
		}
	default:
		return
	}
	got, err := solve.Solve(ctx, "exact", p, solve.Options{Variant: secureview.Set})
	if err != nil {
		r.skipOrViolate(name, "exact layer check", err)
		return
	}
	if !got.Solution.Hidden.Equal(want.Hidden) || !got.Solution.Privatized.Equal(want.Privatized) ||
		math.Float64bits(got.Cost) != math.Float64bits(wantCost) {
		r.violatef("%s: exact optimum %v/%v (%v) != (cost, lex) reference %v/%v (%v)", name,
			got.Solution.Hidden.Sorted(), got.Solution.Privatized.Sorted(), got.Cost,
			want.Hidden.Sorted(), want.Privatized.Sorted(), wantCost)
		return
	}
	r.ExactPinned++
}

// engineApplies reports whether the engine solver accepts the set variant
// of p.
func engineApplies(p *secureview.Problem) bool {
	eng, ok := solve.Get("engine")
	return ok && eng.Supports(p, secureview.Set) == nil
}

// bruteForceSet returns the (cost, lex) least feasible set-variant
// solution over the attribute universe attrs, and false when none is.
func bruteForceSet(p *secureview.Problem, attrs []string) (secureview.Solution, float64, bool) {
	sp, err := search.NewSpace(attrs, nil)
	if err != nil {
		return secureview.Solution{}, 0, false
	}
	var best secureview.Solution
	var bestMask search.Mask
	bestCost, found := math.Inf(1), false
	for h := search.Mask(0); h <= sp.All(); h++ {
		sol := p.Complete(sp.NameSet(h))
		if !p.Feasible(sol, secureview.Set) {
			continue
		}
		if c := p.Cost(sol); !found || c < bestCost || c == bestCost && sp.LexLess(h, bestMask) {
			best, bestMask, bestCost, found = sol, h, c, true
		}
	}
	return best, bestCost, found
}

// referenceEngine is the engine solver's search with the NameSet
// reference oracle: Problem.Feasible on every candidate, one worker.
func referenceEngine(ctx context.Context, p *secureview.Problem, v secureview.Variant,
	attrs []string) (search.Result, *search.Space, error) {
	sp, err := search.NewSpace(attrs, p.Costs.Of)
	if err != nil {
		return search.Result{}, nil, err
	}
	none := relation.NewNameSet()
	oracle := func(visible search.Mask) (bool, error) {
		hidden := sp.NameSet(sp.All() &^ visible)
		return p.Feasible(secureview.Solution{Hidden: hidden, Privatized: none}, v), nil
	}
	res, err := sp.MinCostCtx(ctx, oracle, search.Options{Parallelism: 1})
	return res, sp, err
}
