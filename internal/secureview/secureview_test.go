package secureview

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

// chainProblem is a tiny hand-built all-private instance:
// m1: in a, out b; m2: in b, out c. Each can hide either its input or its
// output (set constraints), or any one input / any one output (cardinality).
func chainProblem(costA, costB, costC float64) *Problem {
	return &Problem{
		Modules: []ModuleSpec{
			{
				Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				SetList:  []SetReq{{In: []string{"a"}}, {Out: []string{"b"}}},
				CardList: []CardReq{{Alpha: 1}, {Beta: 1}},
			},
			{
				Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				SetList:  []SetReq{{In: []string{"b"}}, {Out: []string{"c"}}},
				CardList: []CardReq{{Alpha: 1}, {Beta: 1}},
			},
		},
		Costs: privacy.Costs{"a": costA, "b": costB, "c": costC},
	}
}

func TestValidate(t *testing.T) {
	p := chainProblem(1, 1, 1)
	if err := p.Validate(Set); err != nil {
		t.Errorf("valid set instance rejected: %v", err)
	}
	if err := p.Validate(Cardinality); err != nil {
		t.Errorf("valid cardinality instance rejected: %v", err)
	}
	bad := &Problem{Modules: []ModuleSpec{{Name: "m", Inputs: []string{"a"}, Outputs: []string{"b"},
		CardList: []CardReq{{Alpha: 5}}}}}
	if err := bad.Validate(Cardinality); err == nil {
		t.Error("out-of-bounds alpha accepted")
	}
	bad2 := &Problem{Modules: []ModuleSpec{{Name: "m", Inputs: []string{"a"}, Outputs: []string{"b"},
		SetList: []SetReq{{In: []string{"zz"}}}}}}
	if err := bad2.Validate(Set); err == nil {
		t.Error("foreign attribute in set requirement accepted")
	}
	empty := &Problem{Modules: []ModuleSpec{{Name: "m", Inputs: []string{"a"}, Outputs: []string{"b"}}}}
	if err := empty.Validate(Set); err == nil {
		t.Error("empty requirement list accepted")
	}
	dup := &Problem{Modules: []ModuleSpec{
		{Name: "m", Outputs: []string{"b"}, SetList: []SetReq{{Out: []string{"b"}}}},
		{Name: "m", Outputs: []string{"c"}, SetList: []SetReq{{Out: []string{"c"}}}},
	}}
	if err := dup.Validate(Set); err == nil {
		t.Error("duplicate module accepted")
	}

	// m(a, b → c) with options {a} and {b, c}: a negative cost on b made
	// the engine return [a b] at cost −4 as "optimal" while the other
	// solvers returned [a] at cost 1.
	costly := func(costs privacy.Costs, privatize float64) *Problem {
		return &Problem{
			Modules: []ModuleSpec{
				{Name: "m", Inputs: []string{"a", "b"}, Outputs: []string{"c"},
					SetList:  []SetReq{{In: []string{"a"}}, {In: []string{"b"}, Out: []string{"c"}}},
					CardList: []CardReq{{Alpha: 1}}},
				{Name: "pub", Public: true, Inputs: []string{"c"}, Outputs: []string{"d"}, PrivatizeCost: privatize},
			},
			Costs: costs,
		}
	}
	if err := costly(privacy.Costs{"a": 1, "b": 0, "c": 10}, 0).Validate(Set); err != nil {
		t.Errorf("zero costs rejected: %v", err)
	}
	for _, c := range []float64{-5, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, v := range []Variant{Set, Cardinality} {
			if err := costly(privacy.Costs{"a": 1, "b": c, "c": 10}, 1).Validate(v); err == nil {
				t.Errorf("%v: attribute cost %g accepted", v, c)
			}
			if err := costly(privacy.Costs{"a": 1, "b": 2, "c": 10}, c).Validate(v); err == nil {
				t.Errorf("%v: privatization cost %g accepted", v, c)
			}
		}
	}
}

func TestFeasibilityAndCost(t *testing.T) {
	p := chainProblem(1, 5, 1)
	// Hiding b satisfies both modules at cost 5.
	s := p.Complete(relation.NewNameSet("b"))
	if !p.Feasible(s, Set) || !p.Feasible(s, Cardinality) {
		t.Error("hiding b should be feasible in both variants")
	}
	if got := p.Cost(s); got != 5 {
		t.Errorf("cost = %v, want 5", got)
	}
	// Hiding a and c also works at cost 2.
	s2 := p.Complete(relation.NewNameSet("a", "c"))
	if !p.Feasible(s2, Set) {
		t.Error("hiding {a,c} should be feasible")
	}
	if got := p.Cost(s2); got != 2 {
		t.Errorf("cost = %v, want 2", got)
	}
	// Hiding only a leaves m2 unsatisfied.
	if p.Feasible(p.Complete(relation.NewNameSet("a")), Set) {
		t.Error("hiding only a should be infeasible")
	}
}

func TestExactSetChain(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, err := ExactSet(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 2 {
		t.Fatalf("exact cost = %v, want 2 (hide a and c)", got)
	}
	if !p.Feasible(sol, Set) {
		t.Error("exact solution infeasible")
	}
}

func TestExactCardChain(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, err := BruteForceCard(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 2 {
		t.Fatalf("exact cost = %v, want 2", got)
	}
}

func TestGreedyCanBeSuboptimal(t *testing.T) {
	// Example 5 in miniature: sharing makes per-module optima assemble
	// badly. m feeds a2 (cost 1+ε) to n consumers, each of which may hide
	// its incoming a2 or its outgoing b_i (cost 1); a collector accepts any
	// one hidden b_i. m itself may hide a1 (cost 1) or a2.
	n := 5
	eps := 0.25
	p := &Problem{Costs: privacy.Costs{"a1": 1, "a2": 1 + eps}}
	p.Modules = append(p.Modules, ModuleSpec{
		Name: "m", Inputs: []string{"a1"}, Outputs: []string{"a2"},
		SetList: []SetReq{{In: []string{"a1"}}, {Out: []string{"a2"}}},
	})
	var bs []string
	for i := 0; i < n; i++ {
		b := fmt.Sprintf("b%d", i)
		bs = append(bs, b)
		p.Costs[b] = 1
		p.Modules = append(p.Modules, ModuleSpec{
			Name: fmt.Sprintf("mi%d", i), Inputs: []string{"a2"}, Outputs: []string{b},
			SetList: []SetReq{{In: []string{"a2"}}, {Out: []string{b}}},
		})
	}
	var collectorOpts []SetReq
	for _, b := range bs {
		collectorOpts = append(collectorOpts, SetReq{In: []string{b}})
	}
	p.Modules = append(p.Modules, ModuleSpec{
		Name: "mprime", Inputs: bs, Outputs: []string{"out"},
		SetList: collectorOpts,
	})
	p.Costs["out"] = 1

	greedy := Greedy(p, Set)
	if !p.Feasible(greedy, Set) {
		t.Fatal("greedy infeasible")
	}
	exact, err := ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	gc, ec := p.Cost(greedy), p.Cost(exact)
	if ec != 2+eps {
		t.Fatalf("optimal cost = %v, want %v (hide a2 and one b)", ec, 2+eps)
	}
	// Greedy picks a1 for m, each mi's cheapest (b_i at cost 1 vs a2 at
	// 1+ε), and one b for the collector: cost n+1.
	if gc != float64(n+1) {
		t.Fatalf("greedy cost = %v, want %v", gc, float64(n+1))
	}
}

func TestSetLPRoundChain(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, lpVal, err := SetLPRound(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol, Set) {
		t.Fatal("LP-rounded solution infeasible")
	}
	cost := p.Cost(sol)
	lmax := float64(p.LMax(Set))
	if cost > lmax*lpVal+1e-6 {
		t.Errorf("cost %v exceeds ℓmax×LP = %v", cost, lmax*lpVal)
	}
	if lpVal > cost+1e-6 {
		t.Errorf("LP value %v above rounded cost %v", lpVal, cost)
	}
}

func TestCardinalityLPRoundChain(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, lpVal, err := CardinalityLPRound(p, RoundingOptions{Trials: 5, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol, Cardinality) {
		t.Fatal("rounded solution infeasible")
	}
	if lpVal <= 0 {
		t.Errorf("LP value = %v, want positive", lpVal)
	}
	if p.Cost(sol) < lpVal-1e-6 {
		t.Errorf("cost %v below LP lower bound %v", p.Cost(sol), lpVal)
	}
}

func TestPublicModuleClosure(t *testing.T) {
	// Private m1 outputs b; public m2 consumes b. Hiding b forces
	// privatizing m2.
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				SetList: []SetReq{{Out: []string{"b"}}}},
			{Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				Public: true, PrivatizeCost: 3},
		},
		Costs: privacy.Costs{"a": 1, "b": 1, "c": 1},
	}
	sol := p.Complete(relation.NewNameSet("b"))
	if !sol.Privatized.Has("m2") {
		t.Fatal("closure did not privatize m2")
	}
	if got := p.Cost(sol); got != 4 {
		t.Errorf("cost = %v, want 1 + 3", got)
	}
	if !p.Feasible(sol, Set) {
		t.Error("closed solution infeasible")
	}
	// Without privatization the same hidden set is infeasible.
	if p.Feasible(Solution{Hidden: relation.NewNameSet("b"), Privatized: relation.NewNameSet()}, Set) {
		t.Error("hidden attribute adjacent to visible public module accepted")
	}
}

func TestSetLPRoundWithPublicModules(t *testing.T) {
	// The C.4 LP prices privatization: hiding b costs 1 + privatizing m2
	// (cost 3) = 4, hiding a costs 10. Optimal hides b.
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				SetList: []SetReq{{In: []string{"a"}}, {Out: []string{"b"}}}},
			{Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				Public: true, PrivatizeCost: 3},
		},
		Costs: privacy.Costs{"a": 10, "b": 1, "c": 1},
	}
	sol, lpVal, err := SetLPRound(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol, Set) {
		t.Fatal("solution infeasible")
	}
	if got := p.Cost(sol); got != 4 {
		t.Errorf("cost = %v, want 4 (hide b, privatize m2)", got)
	}
	if lpVal > 4+1e-6 {
		t.Errorf("LP value %v above integral optimum 4", lpVal)
	}
	// When privatization is expensive, the optimum flips to hiding a.
	p.Modules[1].PrivatizeCost = 100
	sol2, _, err := SetLPRound(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol2); got != 10 {
		t.Errorf("cost = %v, want 10 (hide a)", got)
	}
}

// E15 gadget: without constraints (6)/(7) and the summations in (4)/(5),
// the LP relaxation can pay almost nothing (appendix B.4.1); the full form
// stays within a constant of the IP optimum.
func TestIntegralityGapAblation(t *testing.T) {
	m := 100.0
	p := &Problem{
		Modules: []ModuleSpec{{
			Name:    "m",
			Inputs:  []string{"i1", "i2", "i3", "i4"},
			Outputs: []string{"o1", "o2", "o3", "o4"},
			CardList: []CardReq{
				{Alpha: 4, Beta: 0},
				{Alpha: 0, Beta: 4},
			},
		}},
		Costs: privacy.Costs{
			"i1": 0, "i2": 0, "i3": m, "i4": m,
			"o1": 0, "o2": 0, "o3": m, "o4": m,
		},
	}
	weak, err := CardinalityLPValue(p, WeakForm)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CardinalityLPValue(p, FullForm)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BruteForceCard(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	ip := p.Cost(exact)
	if ip != 2*m {
		t.Fatalf("IP optimum = %v, want %v", ip, 2*m)
	}
	if weak > 1e-6 {
		t.Errorf("weak LP value = %v, want ~0 (unbounded gap)", weak)
	}
	if full < m-1e-6 {
		t.Errorf("full LP value = %v, want >= %v (bounded gap)", full, m)
	}
}

func TestDeriveFig1(t *testing.T) {
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	p, err := Derive(w, DeriveOptions{Gamma: 2, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(Set); err != nil {
		t.Fatal(err)
	}
	if p.DataSharing() != 2 {
		t.Errorf("γ = %d, want 2", p.DataSharing())
	}
	// m3 = XOR is 1-private by hiding any single one of a4, a5, a7.
	var m3 *ModuleSpec
	for i := range p.Modules {
		if p.Modules[i].Name == "m3" {
			m3 = &p.Modules[i]
		}
	}
	if m3 == nil {
		t.Fatal("m3 missing")
	}
	if len(m3.SetList) != 3 {
		t.Fatalf("m3 options = %v, want 3 singletons", m3.SetList)
	}
	for _, r := range m3.SetList {
		if len(r.In)+len(r.Out) != 1 {
			t.Errorf("m3 option %v not a singleton", r)
		}
	}

	sol, err := ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol, Set) {
		t.Fatal("derived-instance optimum infeasible")
	}
	// Γ = 4 is impossible for m2/m3 (single boolean output).
	if _, err := Derive(w, DeriveOptions{Gamma: 4, Costs: costs}); err == nil {
		t.Error("Γ=4 accepted despite 1-bit-output modules")
	}
}

func TestDeriveCardMajority(t *testing.T) {
	// Example 6: majority over 2k booleans is 2-private by hiding k+1
	// inputs or the single output.
	k := 2
	in := []string{"x1", "x2", "x3", "x4"}
	mv := privacy.NewModuleView(majorityModule(in))
	list, err := DeriveCard(mv, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[CardReq]bool{{Alpha: k + 1, Beta: 0}: true, {Alpha: 0, Beta: 1}: true}
	if len(list) != 2 {
		t.Fatalf("cardinality list = %v, want {(k+1,0),(0,1)}", list)
	}
	for _, r := range list {
		if !want[r] {
			t.Errorf("unexpected requirement %v", r)
		}
	}
}

func TestDeriveCardOneOne(t *testing.T) {
	// Example 6: a one-one function over k bits is 2^k-private by hiding
	// all k inputs or all k outputs. For Γ=2, hiding any 1 input or any 1
	// output suffices.
	mv := privacy.NewModuleView(identityModule(3))
	list, err := DeriveCard(mv, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[CardReq]bool{{Alpha: 1, Beta: 0}: true, {Alpha: 0, Beta: 1}: true}
	for _, r := range list {
		if !want[r] {
			t.Errorf("unexpected requirement %v for Γ=2: %v", r, list)
		}
	}
	// Γ = 8 needs all three of either side.
	list8, err := DeriveCard(mv, 8)
	if err != nil {
		t.Fatal(err)
	}
	want8 := map[CardReq]bool{{Alpha: 3, Beta: 0}: true, {Alpha: 0, Beta: 3}: true}
	if len(list8) != 2 {
		t.Fatalf("Γ=8 list = %v", list8)
	}
	for _, r := range list8 {
		if !want8[r] {
			t.Errorf("unexpected requirement %v for Γ=8", r)
		}
	}
}

// Property: on random small all-private set-constraint instances,
// exact <= LP-rounded <= ℓmax × LPvalue, exact <= greedy, and all outputs
// are feasible.
func TestQuickSetSolversOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSetProblem(rng)
		exact, err := ExactSet(p, 1<<20)
		if err != nil || !p.Feasible(exact, Set) {
			return false
		}
		greedy := Greedy(p, Set)
		if !p.Feasible(greedy, Set) {
			return false
		}
		rounded, lpVal, err := SetLPRound(p)
		if err != nil || !p.Feasible(rounded, Set) {
			return false
		}
		ec, gc, rc := p.Cost(exact), p.Cost(greedy), p.Cost(rounded)
		lmax := float64(p.LMax(Set))
		return ec <= gc+1e-6 && ec <= rc+1e-6 &&
			rc <= lmax*lpVal+1e-6 && lpVal <= ec+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: greedy respects the (γ+1) bound of Theorem 7 on random
// instances (measured against the exact optimum).
func TestQuickGreedyGammaBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSetProblem(rng)
		exact, err := ExactSet(p, 1<<20)
		if err != nil {
			return false
		}
		greedy := Greedy(p, Set)
		gamma := float64(p.DataSharing())
		ec, gc := p.Cost(exact), p.Cost(greedy)
		if ec == 0 {
			return gc == 0
		}
		return gc <= (gamma+1)*ec+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomSetProblem builds a layered random all-private instance with
// moderate sharing.
func randomSetProblem(rng *rand.Rand) *Problem {
	nMods := 2 + rng.Intn(4)
	p := &Problem{Costs: privacy.Costs{}}
	prevOut := []string{"src"}
	p.Costs["src"] = 1 + rng.Float64()*4
	for i := 0; i < nMods; i++ {
		in := prevOut
		out := []string{fmt.Sprintf("d%d", i)}
		p.Costs[out[0]] = 1 + rng.Float64()*4
		options := []SetReq{{Out: out}}
		for _, a := range in {
			options = append(options, SetReq{In: []string{a}})
		}
		p.Modules = append(p.Modules, ModuleSpec{
			Name: fmt.Sprintf("m%d", i), Inputs: in, Outputs: out, SetList: options,
		})
		if rng.Intn(2) == 0 && i > 0 {
			prevOut = []string{out[0], prevOut[0]}
		} else {
			prevOut = out
		}
	}
	return p
}

func majorityModule(in []string) *module.Module {
	return module.Majority("maj", in, "y")
}

func identityModule(k int) *module.Module {
	in := make([]string, k)
	out := make([]string, k)
	for i := 0; i < k; i++ {
		in[i] = fmt.Sprintf("x%d", i+1)
		out[i] = fmt.Sprintf("y%d", i+1)
	}
	return module.Identity("id", in, out)
}

func TestExplainSetSolution(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, err := ExactSet(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Explain(p, sol, Set)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(e.Lines))
	}
	s := e.String()
	if !strings.Contains(s, "m1") || !strings.Contains(s, "m2") {
		t.Errorf("explanation missing modules:\n%s", s)
	}
}

func TestExplainCardinalityAndPrivatization(t *testing.T) {
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				CardList: []CardReq{{Alpha: 0, Beta: 1}}},
			{Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				Public: true, PrivatizeCost: 3},
		},
		Costs: privacy.Costs{"a": 1, "b": 1, "c": 1},
	}
	sol := p.Complete(relation.NewNameSet("b"))
	e, err := Explain(p, sol, Cardinality)
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if !strings.Contains(s, "privatized") || !strings.Contains(s, `"b"`) {
		t.Errorf("privatization not explained:\n%s", s)
	}
	if !strings.Contains(s, "1 hidden outputs") {
		t.Errorf("cardinality not explained:\n%s", s)
	}
}

func TestExplainRejectsInfeasible(t *testing.T) {
	p := chainProblem(1, 1, 1)
	if _, err := Explain(p, Solution{Hidden: relation.NewNameSet(), Privatized: relation.NewNameSet()}, Set); err == nil {
		t.Error("infeasible solution explained")
	}
}

// TestMultiplicity checks the Theorem 7 charging constant: the maximum
// number of modules any attribute touches as input or output.
func TestMultiplicity(t *testing.T) {
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				SetList: []SetReq{{Out: []string{"b"}}}},
			{Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				SetList: []SetReq{{Out: []string{"c"}}}},
			{Name: "m3", Inputs: []string{"b", "c"}, Outputs: []string{"d"},
				SetList: []SetReq{{Out: []string{"d"}}}},
		},
		Costs: privacy.Costs{"a": 1, "b": 1, "c": 1, "d": 1},
	}
	// b is produced by m1 and consumed by m2 and m3.
	if got := p.Multiplicity(); got != 3 {
		t.Fatalf("multiplicity %d, want 3", got)
	}
	// Consistency with DataSharing: multiplicity <= sharing + 1 when every
	// attribute has at most one producer.
	if p.Multiplicity() > p.DataSharing()+1 {
		t.Fatalf("multiplicity %d exceeds γ+1=%d", p.Multiplicity(), p.DataSharing()+1)
	}
	if got := (&Problem{}).Multiplicity(); got != 0 {
		t.Fatalf("empty problem multiplicity %d, want 0", got)
	}
}
