package diff

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strconv"

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
//   - where the engine applies, Compiled.Classes ≡ referenceClasses, and
//     the registry engine ≡ the same search over a Problem.Feasible oracle
//     at one worker, with collapse on and off: hidden set, cost bits,
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
	cp, err := p.Compile(v, useful)
	if err != nil {
		r.violatef("%s: compile over the engine universe: %v", name, err)
		return
	}
	ref := referenceClasses(p, v, useful)
	if got := cp.Classes(p.Costs.Of); !reflect.DeepEqual(got, ref) {
		r.violatef("%s: compiled requirement classes %v != reference %v", name, got, ref)
	}
	for _, collapse := range []bool{true, false} {
		so := solve.Options{Variant: v, Workers: 1, DisableCollapse: !collapse}
		got, errG := solve.Solve(ctx, "engine", p, so)
		want, sp, errW := referenceEngine(ctx, p, v, useful, collapse, ref)
		if errG != nil || errW != nil {
			if cancelled(errG) || cancelled(errW) {
				r.Skips++
				return
			}
			r.violatef("%s: engine layer check (collapse=%v) failed: compiled=%v reference=%v",
				name, collapse, errG, errW)
			return
		}
		hidden := sp.NameSet(want.Hidden)
		wantCost := p.Cost(p.Complete(hidden))
		c := got.Counters
		switch {
		case !want.Found:
			r.violatef("%s: reference engine (collapse=%v) found no solution", name, collapse)
		case !got.Solution.Hidden.Equal(hidden) ||
			math.Float64bits(got.Cost) != math.Float64bits(wantCost):
			r.violatef("%s: compiled engine (collapse=%v) optimum %v (%v) != reference %v (%v)",
				name, collapse, got.Solution.Hidden.Sorted(), got.Cost, hidden.Sorted(), wantCost)
		case c.Checked != want.Stats.Checked || c.Pruned != want.Stats.Pruned ||
			c.OraclePasses != want.Stats.OraclePasses:
			r.violatef("%s: compiled engine (collapse=%v) counters %d/%d/%d != reference %d/%d/%d (checked/pruned/passes)",
				name, collapse, c.Checked, c.Pruned, c.OraclePasses,
				want.Stats.Checked, want.Stats.Pruned, want.Stats.OraclePasses)
		case got.Frontier == nil || want.Frontier == nil ||
			!bytes.Equal(got.Frontier.AppendBinary(nil), want.Frontier.AppendBinary(nil)):
			r.violatef("%s: compiled engine (collapse=%v) exported a different frontier than the reference", name, collapse)
		}
	}
}

// referenceEngine is the engine solver's search with the NameSet
// reference oracle: Problem.Feasible on every candidate, one worker, and
// the reference requirement classes when collapse is on.
func referenceEngine(ctx context.Context, p *secureview.Problem, v secureview.Variant,
	attrs []string, collapse bool, classes [][]int) (search.Result, *search.Space, error) {
	sp, err := search.NewSpace(attrs, p.Costs.Of)
	if err != nil {
		return search.Result{}, nil, err
	}
	none := relation.NewNameSet()
	oracle := func(visible search.Mask) (bool, error) {
		hidden := sp.NameSet(sp.All() &^ visible)
		return p.Feasible(secureview.Solution{Hidden: hidden, Privatized: none}, v), nil
	}
	so := search.Options{Parallelism: 1}
	if collapse {
		so.Symmetry = classes
	}
	res, err := sp.MinCostCtx(ctx, oracle, so)
	return res, sp, err
}

// referenceClasses is the NameSet form of the engine's requirement
// classes that Compiled.Classes replaced, kept as its reference: two
// attributes are interchangeable when they have equal hiding cost and,
// per module, identical input/output membership (cardinality) or identical
// membership in every option's attribute set (set), plus identical
// membership in every public module's interface. Returned classes index
// attrs; singletons are dropped. On all-private problems — the only ones
// the engine accepts — it must equal Compiled.Classes exactly.
func referenceClasses(p *secureview.Problem, v secureview.Variant, attrs []string) [][]int {
	type set = relation.NameSet
	var inSets, outSets []set // private modules, in order
	var optSets []set         // set variant: every option's attrs, in order
	var pubSets []set         // public modules' full interface
	for _, m := range p.Modules {
		if m.Public {
			pubSets = append(pubSets,
				relation.NewNameSet(m.Inputs...).Union(relation.NewNameSet(m.Outputs...)))
			continue
		}
		switch v {
		case secureview.Cardinality:
			inSets = append(inSets, relation.NewNameSet(m.Inputs...))
			outSets = append(outSets, relation.NewNameSet(m.Outputs...))
		case secureview.Set:
			for _, r := range m.SetList {
				optSets = append(optSets, r.Attrs())
			}
		}
	}
	sig := func(a string) string {
		var b []byte
		b = strconv.AppendUint(b, math.Float64bits(p.Costs.Of(a)), 16)
		mark := func(sets []set) {
			for _, s := range sets {
				if s.Has(a) {
					b = append(b, '1')
				} else {
					b = append(b, '0')
				}
			}
		}
		mark(inSets)
		b = append(b, '|')
		mark(outSets)
		b = append(b, '|')
		mark(optSets)
		b = append(b, '|')
		mark(pubSets)
		return string(b)
	}
	order := make(map[string]int)
	var classes [][]int
	for i, a := range attrs {
		k := sig(a)
		ci, ok := order[k]
		if !ok {
			ci = len(classes)
			order[k] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], i)
	}
	out := classes[:0]
	for _, cl := range classes {
		if len(cl) >= 2 {
			out = append(out, cl)
		}
	}
	return out
}
