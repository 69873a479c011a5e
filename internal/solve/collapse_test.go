package solve_test

import (
	"context"
	"fmt"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// TestEngineCollapseParity pins the engine solver's equivalence-class
// collapsing across the generated problem classes and both variants: the
// collapsed (default) and collapse-disabled runs must return the identical
// hidden set and keep the Checked+Pruned accounting over the
// useful-attribute space. (Generated instances draw distinct random costs,
// so classes rarely form there; TestEngineCollapseEngages covers the
// engagement itself.)
func TestEngineCollapseParity(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.ProblemClasses() {
		for seed := int64(0); seed < 4; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
				eng, _ := solve.Get("engine")
				if eng.Supports(p, v) != nil {
					continue
				}
				name := fmt.Sprintf("%s/seed=%d/%s", pc.Name, seed, v)
				res, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: v})
				if err != nil {
					t.Fatalf("%s: engine: %v", name, err)
				}
				plain, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: v, DisableCollapse: true})
				if err != nil {
					t.Fatalf("%s: engine (collapse disabled): %v", name, err)
				}
				if !res.Solution.Hidden.Equal(plain.Solution.Hidden) || !within(res.Cost, plain.Cost) {
					t.Fatalf("%s: collapse changed the optimum: %v (%g) vs %v (%g)",
						name, res.Solution.Hidden.Sorted(), res.Cost, plain.Solution.Hidden.Sorted(), plain.Cost)
				}
				space := 1 << len(p.UsefulAttributes(v))
				if res.Counters.Checked+res.Counters.Pruned != space {
					t.Fatalf("%s: collapsed Checked %d + Pruned %d != %d",
						name, res.Counters.Checked, res.Counters.Pruned, space)
				}
				if plain.Counters.Checked+plain.Counters.Pruned != space {
					t.Fatalf("%s: plain Checked %d + Pruned %d != %d",
						name, plain.Counters.Checked, plain.Counters.Pruned, space)
				}
			}
		}
	}
}

// symmetricProblem builds an all-private instance whose attributes are
// requirement-interchangeable in bulk: every module's inputs form one
// equal-cost class and its outputs another.
func symmetricProblem() *secureview.Problem {
	p := &secureview.Problem{Costs: privacy.Costs{}}
	for i := 0; i < 2; i++ {
		in := []string{fmt.Sprintf("x%d_0", i), fmt.Sprintf("x%d_1", i), fmt.Sprintf("x%d_2", i)}
		out := []string{fmt.Sprintf("y%d_0", i), fmt.Sprintf("y%d_1", i)}
		for _, a := range in {
			p.Costs[a] = 2
		}
		for _, a := range out {
			p.Costs[a] = 1
		}
		p.Modules = append(p.Modules, secureview.ModuleSpec{
			Name:    fmt.Sprintf("m%d", i),
			Inputs:  in,
			Outputs: out,
			SetList: []secureview.SetReq{
				{In: append([]string(nil), in...)},
				{Out: append([]string(nil), out...)},
			},
			CardList: []secureview.CardReq{
				{Alpha: len(in)},
				{Beta: len(out)},
			},
		})
	}
	return p
}

// TestEngineCollapseEngages: on a uniform-cost symmetric instance the
// collapse must do real work — strictly more pruning (and strictly fewer
// safety tests) than the collapse-disabled run, with the identical optimum.
func TestEngineCollapseEngages(t *testing.T) {
	ctx := context.Background()
	p := symmetricProblem()
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		res, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: v, DisableCollapse: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solution.Hidden.Equal(plain.Solution.Hidden) || !within(res.Cost, plain.Cost) {
			t.Fatalf("%s: collapse changed the optimum: %v (%g) vs %v (%g)",
				v, res.Solution.Hidden.Sorted(), res.Cost, plain.Solution.Hidden.Sorted(), plain.Cost)
		}
		space := 1 << len(p.UsefulAttributes(v))
		if res.Counters.Checked+res.Counters.Pruned != space {
			t.Fatalf("%s: Checked %d + Pruned %d != %d", v, res.Counters.Checked, res.Counters.Pruned, space)
		}
		if res.Counters.Pruned <= plain.Counters.Pruned || res.Counters.Checked >= plain.Counters.Checked {
			t.Fatalf("%s: collapse did not engage: checked %d pruned %d vs plain checked %d pruned %d",
				v, res.Counters.Checked, res.Counters.Pruned, plain.Counters.Checked, plain.Counters.Pruned)
		}
	}
}
