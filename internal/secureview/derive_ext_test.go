package secureview

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

func TestDerivePerModuleGamma(t *testing.T) {
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	// m1 has 3 output bits (range 8) so it supports Γ=4; the single-output
	// modules m2, m3 stay at Γ=2.
	p, err := Derive(w, DeriveOptions{
		Gamma:          2,
		GammaPerModule: map[string]uint64{"m1": 4},
		Costs:          costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	// Check standalone guarantees per module at their own Γ.
	for _, m := range w.Modules() {
		mv := privacy.NewModuleView(m)
		gamma := uint64(2)
		if m.Name() == "m1" {
			gamma = 4
		}
		vis := relation.NewNameSet(mv.Attrs()...).Minus(sol.Hidden)
		safe, err := mv.IsSafe(vis, gamma)
		if err != nil || !safe {
			t.Errorf("module %s not %d-private under solution %v", m.Name(), gamma, sol.Hidden)
		}
	}
	// A uniform Γ=4 derivation must fail (m2/m3 cannot reach it)...
	if _, err := Derive(w, DeriveOptions{Gamma: 4, Costs: costs}); err == nil {
		t.Error("uniform Γ=4 accepted despite 1-bit modules")
	}
	// ...and so must a zero requirement.
	if _, err := Derive(w, DeriveOptions{Costs: costs}); err == nil {
		t.Error("missing Γ accepted")
	}
}

func TestDeriveFromRecordedPartialLog(t *testing.T) {
	// With only two executions recorded, the constant-looking behaviour of
	// m3 over the log changes which subsets are safe.
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	partial, err := w.RelationOver([]relation.Tuple{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Derive(w, DeriveOptions{Gamma: 2, Costs: costs, Recorded: partial})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	// The solution must be safe for every module view over the log.
	for _, m := range w.Modules() {
		proj, err := partial.Project(m.AttrNames())
		if err != nil {
			t.Fatal(err)
		}
		mv := privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}
		vis := relation.NewNameSet(mv.Attrs()...).Minus(sol.Hidden)
		safe, err := mv.IsSafe(vis, 2)
		if err != nil || !safe {
			t.Errorf("module %s unsafe over the recorded log", m.Name())
		}
	}
	// Partial logs can be HARDER to protect: the two recorded rows give m2
	// a single execution, so its visible outputs carry less ambiguity and
	// more must be hidden (cost 3) than over the full domain (cost 2).
	full, err := Derive(w, DeriveOptions{Gamma: 2, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	fullSol, err := ExactSet(full, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), 3.0; got != want {
		t.Errorf("partial-log cost = %v, want %v", got, want)
	}
	if got, want := full.Cost(fullSol), 2.0; got != want {
		t.Errorf("full-domain cost = %v, want %v", got, want)
	}
}

// Property: for random two-layer workflows, the exact optimum of the
// derived instance is safe for every module standalone.
func TestQuickDeriveConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := module.Random("m1", relation.Bools("x1", "x2"), relation.Bools("u1", "u2"), rng)
		m2 := module.Random("m2", relation.Bools("u1", "u2"), relation.Bools("v1", "v2"), rng)
		w, err := workflow.New("rand", m1, m2)
		if err != nil {
			return false
		}
		costs := privacy.Uniform(w.Schema().Names()...)
		p, err := Derive(w, DeriveOptions{Gamma: 2, Costs: costs})
		if err != nil {
			return errors.Is(err, ErrInfeasible) // no safe subset at Γ=2
		}
		sa, err := ExactSet(p, 1<<20)
		if err != nil {
			return false
		}
		for _, m := range w.Modules() {
			mv := privacy.NewModuleView(m)
			vis := relation.NewNameSet(mv.Attrs()...).Minus(sa.Hidden)
			safe, err := mv.IsSafe(vis, 2)
			if err != nil || !safe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeriveInfeasibleIsTyped pins the ErrInfeasible sentinel: a module
// whose output range is smaller than Γ can never be safe, and both
// derivations must report that as errors.Is-able infeasibility (the
// differential harness distinguishes it from internal failures).
func TestDeriveInfeasibleIsTyped(t *testing.T) {
	w := workflow.MustNew("tiny", module.Identity("m", []string{"x"}, []string{"y"}))
	costs := privacy.Uniform(w.Schema().Names()...)
	if _, err := Derive(w, DeriveOptions{Gamma: 4, Costs: costs}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Derive: got %v, want ErrInfeasible", err)
	}
	if _, err := DeriveCardProblem(w, 4, costs, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("DeriveCardProblem: got %v, want ErrInfeasible", err)
	}
}
