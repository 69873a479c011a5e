package worlds

import (
	"testing"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/workflow"
)

// Theorem 8 end-to-end: in a general workflow (private + public modules),
// solving the derived Secure-View instance yields a hidden-attribute /
// privatized-module pair under which every private module is Γ-workflow-
// private — verified by exhaustive enumeration of Worlds(R, V, P)
// (Definition 6).
func TestTheorem8GeneralAssembly(t *testing.T) {
	// Public constant feeds a private identity (the dangerous Example 7
	// shape), whose output feeds a public complement (the other dangerous
	// shape). The optimizer must pay privatizations as needed.
	mPub1 := module.Constant("src", relation.Bools("i0"), relation.Bools("u1", "u2"), relation.Tuple{0, 1}).AsPublic()
	mPriv := module.Identity("m", []string{"u1", "u2"}, []string{"v1", "v2"})
	mPub2 := module.Complement("post", []string{"v1", "v2"}, []string{"w1", "w2"}).AsPublic()
	w := workflow.MustNew("thm8", mPub1, mPriv, mPub2)

	costs := privacy.Costs{"i0": 10, "u1": 1, "u2": 1, "v1": 1, "v2": 1, "w1": 10, "w2": 10}
	privatize := map[string]float64{"src": 2, "post": 2}

	p, err := secureview.Derive(w, secureview.Set, secureview.DeriveOptions{
		Gamma: 2, Costs: costs, PrivatizeCosts: privatize,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := secureview.ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol, secureview.Set) {
		t.Fatal("solution infeasible")
	}

	visible := relation.NewNameSet(w.Schema().Names()...).Minus(sol.Hidden)
	// The enumerator needs the initial input visible; i0 costs 10, so the
	// optimum never hides it.
	if !visible.Has("i0") {
		t.Fatalf("optimum hid the expensive initial input: %v", sol.Hidden)
	}
	e := &Enumerator{
		W: w, R: w.MustRelation(),
		Visible:    visible,
		Privatized: sol.Privatized,
	}
	ok, err := e.IsWorkflowPrivate("m", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("m not 2-workflow-private under hidden=%v privatized=%v",
			sol.Hidden, sol.Privatized)
	}

	// Counterfactual: dropping the privatizations from the same solution
	// must break privacy (this is exactly the Example 7 leak).
	if len(sol.Privatized) > 0 {
		e2 := &Enumerator{W: w, R: w.MustRelation(), Visible: visible}
		ok, err := e2.IsWorkflowPrivate("m", 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("privacy held even without the privatizations the optimizer paid for")
		}
	}
}

// Theorem 8 with the cheap path: when privatization is free, the optimizer
// prefers hiding the cheap shared attributes and renaming the neighbours.
func TestTheorem8PrivatizationTradeoffs(t *testing.T) {
	mPub := module.Identity("fmt", []string{"a"}, []string{"b"}).AsPublic()
	mPriv := module.Not("m", "b", "c")
	w := workflow.MustNew("trade", mPub, mPriv)
	costs := privacy.Costs{"a": 5, "b": 1, "c": 5}

	cheap, err := secureview.Derive(w, secureview.Set, secureview.DeriveOptions{
		Gamma: 2, Costs: costs, PrivatizeCosts: map[string]float64{"fmt": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	solCheap, err := secureview.ExactSet(cheap, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !solCheap.Hidden.Has("b") || !solCheap.Privatized.Has("fmt") {
		t.Errorf("cheap privatization: hidden=%v privatized=%v, want hide b + privatize fmt",
			solCheap.Hidden, solCheap.Privatized)
	}
	if got := cheap.Cost(solCheap); got != 1.5 {
		t.Errorf("cost = %v, want 1.5", got)
	}

	dear, err := secureview.Derive(w, secureview.Set, secureview.DeriveOptions{
		Gamma: 2, Costs: costs, PrivatizeCosts: map[string]float64{"fmt": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	solDear, err := secureview.ExactSet(dear, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if solDear.Privatized.Has("fmt") {
		t.Errorf("expensive privatization chosen: %v", solDear.Privatized)
	}
	if got := dear.Cost(solDear); got != 5 {
		t.Errorf("cost = %v, want 5 (hide c)", got)
	}
}
