package secureview

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"secureview/internal/privacy"
)

func TestExactCardBBChain(t *testing.T) {
	p := chainProblem(1, 5, 1)
	sol, err := ExactCardBB(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 2 {
		t.Fatalf("BB cost = %v, want 2", got)
	}
}

func TestExactCardBBGapGadget(t *testing.T) {
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
			"i1": 0, "i2": 0, "i3": 100, "i4": 100,
			"o1": 0, "o2": 0, "o3": 100, "o4": 100,
		},
	}
	sol, err := ExactCardBB(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 200 {
		t.Fatalf("BB cost = %v, want 200", got)
	}
}

// TestExactCardBBNodeBudget: a search tree with more leaves (2^k) than the
// node budget is refused before any search, with the typed error and no
// incumbent; a budget of exactly 2^k admits it.
func TestExactCardBBNodeBudget(t *testing.T) {
	p := chainProblem(1, 5, 1)
	k := len(p.UsefulAttributes(Cardinality))
	sol, st, err := ExactCardBBCtx(context.Background(), p, 1<<k-1)
	if !errors.Is(err, ErrNodeBudget) || st.Nodes != 0 || sol.Hidden != nil {
		t.Fatalf("budget 2^%d-1: err = %v, nodes = %d, hidden = %v; want ErrNodeBudget before any node", k, err, st.Nodes, sol.Hidden)
	}
	if _, _, err := ExactCardBBCtx(context.Background(), p, 1<<k); err != nil {
		t.Fatalf("budget 2^%d: %v", k, err)
	}
}

func TestExactCardBBWithPublicModules(t *testing.T) {
	// Hiding b forces privatizing m2 (cost 3); hiding a costs 2 and avoids
	// it; the optimum must account for privatization, not just attributes.
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m1", Inputs: []string{"a"}, Outputs: []string{"b"},
				CardList: []CardReq{{Alpha: 1, Beta: 0}, {Alpha: 0, Beta: 1}}},
			{Name: "m2", Inputs: []string{"b"}, Outputs: []string{"c"},
				Public: true, PrivatizeCost: 3},
		},
		Costs: privacy.Costs{"a": 2, "b": 1, "c": 1},
	}
	sol, err := ExactCardBB(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 2 {
		t.Fatalf("BB cost = %v, want 2 (hide a)", got)
	}
	if !sol.Hidden.Has("a") {
		t.Errorf("hidden = %v, want {a}", sol.Hidden)
	}
}

// Property: branch and bound agrees with exhaustive enumeration on random
// cardinality instances (with and without sharing).
func TestQuickBBMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomCardProblem(rng)
		enum, err1 := BruteForceCard(p, 18)
		bb, err2 := ExactCardBB(p, 1<<22)
		if err1 != nil || err2 != nil {
			return false
		}
		return p.Cost(enum) == p.Cost(bb) &&
			p.Feasible(bb, Cardinality)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomCardProblem builds a small random cardinality instance with
// requirement pairs up to the module arity.
func randomCardProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(4)
	p := &Problem{Costs: privacy.Costs{}}
	prev := []string{"src0", "src1"}
	p.Costs["src0"] = float64(1 + rng.Intn(5))
	p.Costs["src1"] = float64(1 + rng.Intn(5))
	for i := 0; i < n; i++ {
		in := prev
		out := []string{fmt.Sprintf("d%d_0", i), fmt.Sprintf("d%d_1", i)}
		for _, a := range out {
			p.Costs[a] = float64(1 + rng.Intn(5))
		}
		var list []CardReq
		for k := 0; k < 1+rng.Intn(2); k++ {
			list = append(list, CardReq{
				Alpha: rng.Intn(len(in) + 1),
				Beta:  rng.Intn(len(out) + 1),
			})
		}
		// Ensure satisfiability: at least one option within bounds exists
		// by construction (alpha <= |in|, beta <= |out|).
		p.Modules = append(p.Modules, ModuleSpec{
			Name: fmt.Sprintf("m%d", i), Inputs: in, Outputs: out, CardList: list,
		})
		prev = out
	}
	return p
}

// fuzzCardProblem builds a small cardinality problem from the fuzz input:
// up to 12 attributes with integer costs 0-3, so zero-cost attributes and
// equal-cost optima are common, shared by up to 6 modules, some public
// with integer privatization costs. Private modules list 1-4 (α, β)
// requirements within their arity, which may repeat or be (0, 0).
func fuzzCardProblem(data []byte) *Problem {
	src := &byteSource{b: data}
	pool := make([]string, 1+src.next(12))
	for i := range pool {
		pool[i] = fmt.Sprintf("a%d", i)
	}
	p := &Problem{Costs: privacy.Costs{}}
	for _, a := range pool {
		p.Costs[a] = float64(src.next(4))
	}
	for mi, n := 0, 1+src.next(6); mi < n; mi++ {
		m := ModuleSpec{Name: fmt.Sprintf("m%d", mi), Public: src.next(4) == 0}
		for _, a := range pool {
			switch src.next(4) {
			case 1:
				m.Inputs = append(m.Inputs, a)
			case 2:
				m.Outputs = append(m.Outputs, a)
			}
		}
		if m.Public {
			m.PrivatizeCost = float64(src.next(4))
		} else {
			for j, n := 0, 1+src.next(4); j < n; j++ {
				m.CardList = append(m.CardList, CardReq{
					Alpha: src.next(len(m.Inputs) + 1),
					Beta:  src.next(len(m.Outputs) + 1),
				})
			}
		}
		p.Modules = append(p.Modules, m)
	}
	return p
}

// checkExactCard compares the cardinality branch and bound with the
// brute-force reference: both find a solution or neither does, and the
// branch and bound's is feasible and costs the reference optimum.
func checkExactCard(t *testing.T, p *Problem) {
	t.Helper()
	if p.Validate(Cardinality) != nil {
		return
	}
	want, errRef := BruteForceCard(p, 12)
	sol, _, err := ExactCardBBCtx(context.Background(), p, 1<<12)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("branch and bound err = %v, brute force err = %v", err, errRef)
	}
	if err != nil {
		return
	}
	if !p.Feasible(sol, Cardinality) {
		t.Fatalf("branch and bound hides %v privatizes %v: infeasible", sol.Hidden.Sorted(), sol.Privatized.Sorted())
	}
	if got, ref := p.Cost(sol), p.Cost(want); got != ref {
		t.Fatalf("branch and bound cost %v (hides %v), brute force %v (hides %v)",
			got, sol.Hidden.Sorted(), ref, want.Hidden.Sorted())
	}
}

// FuzzExactCard checks the cardinality branch and bound, which the
// registry's exact solver runs, against a 2^k brute force over
// Problem.Feasible and Problem.Cost. Run actively with:
//
//	go test -run '^$' -fuzz '^FuzzExactCard$' -fuzztime 30s ./internal/secureview
func FuzzExactCard(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 48+i*8)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExactCard(t, fuzzCardProblem(data))
	})
}

// TestExactCardMatchesBruteForce runs the fuzz target's check over a fixed
// sweep of generated problems, so plain test runs cover it too.
func TestExactCardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		data := make([]byte, 32+rng.Intn(96))
		rng.Read(data)
		checkExactCard(t, fuzzCardProblem(data))
	}
}

// TestGreedyCardModuleWithOneSide: a private module with inputs but no
// outputs still gets its cheapest requirement hidden, so the greedy seed of
// the branch and bound is feasible and the search finds the optimum.
func TestGreedyCardModuleWithOneSide(t *testing.T) {
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m", Inputs: []string{"a", "b"}, CardList: []CardReq{{Alpha: 1}}},
			{Name: "pub", Public: true, PrivatizeCost: 3, Inputs: []string{"b"}},
		},
		Costs: privacy.Costs{"a": 2, "b": 0},
	}
	if g := Greedy(p, Cardinality); !g.Hidden.Has("b") || !p.Feasible(g, Cardinality) {
		t.Fatalf("greedy hides %v privatizes %v, want the feasible {b}", g.Hidden.Sorted(), g.Privatized.Sorted())
	}
	sol, err := ExactCardBB(p, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 2 || !sol.Hidden.Has("a") {
		t.Fatalf("hides %v at %v, want {a} at 2", sol.Hidden.Sorted(), got)
	}
}
