package diff

import (
	"bytes"
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
//     a Problem.Feasible oracle at one worker: hidden set, cost bits,
//     Checked/Pruned/OraclePasses and the exported Frontier's encoding, all
//     identical.
//
// The engine runs here are layer re-runs, not solver-matrix runs, so they
// are not counted in SolverRuns.
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

	if eng, ok := solve.Get("engine"); !ok || eng.Supports(p, v) != nil {
		return
	}
	got, errG := solve.Solve(ctx, "engine", p, solve.Options{Variant: v, Workers: 1})
	want, sp, errW := referenceEngine(ctx, p, v, useful)
	if errG != nil || errW != nil {
		if cancelled(errG) || cancelled(errW) {
			r.Skips++
			return
		}
		r.violatef("%s: engine layer check failed: compiled=%v reference=%v", name, errG, errW)
		return
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
	case got.Frontier == nil || want.Frontier == nil ||
		!bytes.Equal(got.Frontier.AppendBinary(nil), want.Frontier.AppendBinary(nil)):
		r.violatef("%s: compiled engine exported a different frontier than the reference", name)
	}
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
