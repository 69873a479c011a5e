package secureview

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/search"
)

// bruteForceSet is the reference optimum of the set variant: every subset
// of the useful attributes, completed with its privatization closure,
// tested with Problem.Feasible, priced with Problem.Cost, and ranked by
// (cost, search.Space.LexLess).
func bruteForceSet(t *testing.T, p *Problem) (relation.NameSet, float64, bool) {
	t.Helper()
	attrs := p.UsefulAttributes(Set)
	sp, err := search.NewSpace(attrs, p.Costs.Of)
	if err != nil {
		t.Fatal(err)
	}
	var best search.Mask
	bestCost, found := math.Inf(1), false
	for h := search.Mask(0); h <= sp.All(); h++ {
		sol := p.Complete(sp.NameSet(h))
		if !p.Feasible(sol, Set) {
			continue
		}
		c := p.Cost(sol)
		if !found || c < bestCost || c == bestCost && sp.LexLess(h, best) {
			best, bestCost, found = h, c, true
		}
	}
	return sp.NameSet(best), bestCost, found
}

// engineSet runs the engine solver's search on an all-private problem: the
// single-worker (cost, lex) scan over the useful attributes with the
// compiled feasibility test as its oracle.
func engineSet(t *testing.T, p *Problem) (relation.NameSet, bool) {
	t.Helper()
	attrs := p.UsefulAttributes(Set)
	sp, err := search.NewSpace(attrs, p.Costs.Of)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(Set, attrs)
	if err != nil {
		t.Fatal(err)
	}
	all := sp.All()
	res, err := sp.MinCost(func(v search.Mask) (bool, error) {
		return c.Feasible(uint64(all &^ v)), nil
	}, search.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sp.NameSet(res.Hidden), res.Found
}

// checkExactSet compares ExactSet with the brute-force reference (hidden
// set, privatized set and cost) and, on all-private problems, with the
// engine's hidden set.
func checkExactSet(t *testing.T, p *Problem) {
	t.Helper()
	if p.Validate(Set) != nil {
		return
	}
	want, wantCost, found := bruteForceSet(t, p)
	sol, err := ExactSet(p, 1<<20)
	if !found {
		if err == nil {
			t.Fatalf("ExactSet returned %v on an infeasible problem", sol.Hidden.Sorted())
		}
		return
	}
	if err != nil {
		t.Fatalf("ExactSet: %v", err)
	}
	if !sol.Hidden.Equal(want) || p.Cost(sol) != wantCost {
		t.Fatalf("ExactSet hides %v at %v, brute force %v at %v",
			sol.Hidden.Sorted(), p.Cost(sol), want.Sorted(), wantCost)
	}
	if !sol.Privatized.Equal(p.PrivatizationClosure(want)) {
		t.Fatalf("ExactSet privatizes %v, want the closure %v",
			sol.Privatized.Sorted(), p.PrivatizationClosure(want).Sorted())
	}
	if p.PrivateCount() != len(p.Modules) {
		return
	}
	if eng, ok := engineSet(t, p); !ok || !sol.Hidden.Equal(eng) {
		t.Fatalf("ExactSet hides %v, engine %v (found %v)", sol.Hidden.Sorted(), eng.Sorted(), ok)
	}
}

// fuzzSetProblem builds a small set-variant problem from the fuzz input: up
// to 12 attributes with integer costs 0-3, so zero-cost attributes and
// equal-cost optima are common, shared by up to 6 modules, some public
// with integer privatization costs. Private modules list 1-4 options,
// which may be empty or repeat.
func fuzzSetProblem(data []byte) *Problem {
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
			p.Modules = append(p.Modules, m)
			continue
		}
		for j, n := 0, 1+src.next(4); j < n; j++ {
			if j > 0 && src.next(4) == 0 {
				m.SetList = append(m.SetList, m.SetList[j-1])
				continue
			}
			var r SetReq
			for _, a := range m.Inputs {
				if src.next(2) == 1 {
					r.In = append(r.In, a)
				}
			}
			for _, a := range m.Outputs {
				if src.next(2) == 1 {
					r.Out = append(r.Out, a)
				}
			}
			m.SetList = append(m.SetList, r)
		}
		p.Modules = append(p.Modules, m)
	}
	return p
}

// FuzzExactSet checks the set-variant branch and bound against a 2^k brute
// force over Problem.Feasible and Problem.Cost with the (cost, lex)
// tie-break, and on all-private inputs against the engine's hidden set.
// Run actively with:
//
//	go test -run '^$' -fuzz '^FuzzExactSet$' -fuzztime 30s ./internal/secureview
func FuzzExactSet(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 48+i*8)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExactSet(t, fuzzSetProblem(data))
	})
}

// TestExactSetMatchesReferences runs the fuzz target's check over a fixed
// sweep of generated problems, so plain test runs cover it too.
func TestExactSetMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		data := make([]byte, 32+rng.Intn(96))
		rng.Read(data)
		checkExactSet(t, fuzzSetProblem(data))
	}
	for _, p := range []*Problem{chainProblem(1, 1, 1), chainProblem(0, 2, 0), chainProblem(3, 1, 3)} {
		checkExactSet(t, p)
	}
}

// TestExactSetWideTies solves 36 modules over 146 attributes, three mask
// words. Every module is satisfied by hiding "a" or "zz" (cost 1 each, at
// opposite ends of the universe) or its own four attributes (cost 2, three
// of them free): the lex tie-break picks "a", until a public module on "a"
// makes "zz" the only optimal union, which the free attributes below it
// then join.
func TestExactSetWideTies(t *testing.T) {
	p := &Problem{Costs: privacy.Costs{"a": 1, "zz": 1}}
	free := relation.NewNameSet("zz")
	for i := 0; i < 36; i++ {
		own := []string{fmt.Sprintf("p%03d", i), fmt.Sprintf("q%03d", i), fmt.Sprintf("r%03d", i), fmt.Sprintf("s%03d", i)}
		p.Costs[own[0]], p.Costs[own[1]], p.Costs[own[2]], p.Costs[own[3]] = 2, 0, 0, 0
		free.Add(own[1])
		free.Add(own[2])
		free.Add(own[3])
		p.Modules = append(p.Modules, ModuleSpec{
			Name: fmt.Sprintf("m%03d", i), Inputs: []string{"a", own[0]}, Outputs: append([]string{"zz"}, own[1:]...),
			SetList: []SetReq{{Out: []string{"zz"}}, {In: own[:1], Out: own[1:]}, {In: []string{"a"}}},
		})
	}
	for _, tc := range []struct {
		pubCost float64
		want    relation.NameSet
	}{{0, relation.NewNameSet("a")}, {5, free}} {
		p := &Problem{Costs: p.Costs, Modules: append(p.Modules[:36:36], ModuleSpec{
			Name: "pub", Public: true, PrivatizeCost: tc.pubCost, Inputs: []string{"a"}, Outputs: []string{"out"}})}
		sol, st, err := ExactSetCtx(context.Background(), p, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Hidden.Equal(tc.want) || p.Cost(sol) != 1 {
			t.Errorf("public cost %v: hides %v at %v, want %v at 1", tc.pubCost, sol.Hidden.Sorted(), p.Cost(sol), tc.want.Sorted())
		}
		if st.Nodes > 1000 {
			t.Errorf("public cost %v: %d nodes for a problem one choice settles", tc.pubCost, st.Nodes)
		}
	}
}

// TestExactSetZeroCostCompletion: zero-cost attributes below the largest
// hidden one join the optimum, since they make it lex-smaller at no cost,
// unless they would privatize a public module with a positive cost.
func TestExactSetZeroCostCompletion(t *testing.T) {
	p := &Problem{
		Modules: []ModuleSpec{
			{Name: "m", Inputs: []string{"a", "b", "c"}, Outputs: []string{"d"},
				SetList: []SetReq{{Out: []string{"d"}}}},
			{Name: "pub", Public: true, PrivatizeCost: 1, Inputs: []string{"b"}},
		},
		Costs: privacy.Costs{"a": 0, "b": 0, "c": 0, "d": 2},
	}
	sol, err := ExactSet(p, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// a, b and c are not useful (no option names them), so nothing joins.
	if got := sol.Hidden.Sorted(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("hides %v, want [d]", got)
	}
	p.Modules[0].SetList = append(p.Modules[0].SetList, SetReq{In: []string{"a", "b", "c"}, Out: []string{"d"}})
	sol, err = ExactSet(p, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Hidden.Sorted(); fmt.Sprint(got) != "[a c d]" || len(sol.Privatized) != 0 {
		t.Fatalf("hides %v privatizes %v, want [a c d] and nothing", got, sol.Privatized.Sorted())
	}
	checkExactSet(t, p)
}

// TestExactSetBudgetAndCancel: the option product is refused up front with
// the typed budget error, and a cancelled search still returns a feasible
// incumbent.
func TestExactSetBudgetAndCancel(t *testing.T) {
	p := chainProblem(1, 2, 3)
	if _, err := ExactSet(p, 3); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("product 4 under budget 3: err = %v, want ErrNodeBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, _, err := ExactSetCtx(ctx, p, 1<<10)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v", err)
	}
	if !p.Feasible(sol, Set) {
		t.Fatalf("cancelled search returned an infeasible %v", sol.Hidden.Sorted())
	}
}
