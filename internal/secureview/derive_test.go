package secureview

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	p, err := Derive(w, Set, DeriveOptions{
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
	if _, err := Derive(w, Set, DeriveOptions{Gamma: 4, Costs: costs}); err == nil {
		t.Error("uniform Γ=4 accepted despite 1-bit modules")
	}
	// ...and so must a zero requirement.
	if _, err := Derive(w, Set, DeriveOptions{Costs: costs}); err == nil {
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
	p, err := Derive(w, Set, DeriveOptions{Gamma: 2, Costs: costs, Recorded: partial})
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
	full, err := Derive(w, Set, DeriveOptions{Gamma: 2, Costs: costs})
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
		p, err := Derive(w, Set, DeriveOptions{Gamma: 2, Costs: costs})
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
// variants must report that as errors.Is-able infeasibility (the
// differential harness distinguishes it from internal failures), with the
// texts a server response carries.
func TestDeriveInfeasibleIsTyped(t *testing.T) {
	w := workflow.MustNew("tiny", module.Identity("m", []string{"x"}, []string{"y"}))
	costs := privacy.Uniform(w.Schema().Names()...)
	for v, want := range map[Variant]string{
		Set:         "secureview: module m has no safe subset for Γ=4: secureview: infeasible at Γ",
		Cardinality: "secureview: module m has no cardinality-safe pair for Γ=4: secureview: infeasible at Γ",
	} {
		_, err := Derive(w, v, DeriveOptions{Gamma: 4, Costs: costs})
		if !errors.Is(err, ErrInfeasible) || err.Error() != want {
			t.Fatalf("Derive(%v): got %v, want %q", v, err, want)
		}
	}
}

// TestDeriveOptionsApplyToBothVariants: per-module Γ and a recorded log
// shape the requirement lists of either variant, module by module.
func TestDeriveOptionsApplyToBothVariants(t *testing.T) {
	w := workflow.Fig1()
	partial, err := w.RelationOver([]relation.Tuple{{0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	opts := DeriveOptions{
		Gamma:          2,
		GammaPerModule: map[string]uint64{"m1": 4},
		Costs:          privacy.Uniform(w.Schema().Names()...),
		Recorded:       partial,
	}
	set, err := Derive(w, Set, opts)
	if err != nil {
		t.Fatal(err)
	}
	card, err := Derive(w, Cardinality, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range w.Modules() {
		proj, err := partial.Project(m.AttrNames())
		if err != nil {
			t.Fatal(err)
		}
		mv := privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}
		gamma := opts.gammaFor(m.Name())
		wantSet, err := DeriveSet(mv, gamma)
		if err != nil {
			t.Fatal(err)
		}
		wantCard, err := DeriveCard(mv, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Modules[i].SetList; !reflect.DeepEqual(got, wantSet) {
			t.Errorf("%s: set list %v, want %v over the log at Γ=%d", m.Name(), got, wantSet, gamma)
		}
		if got := card.Modules[i].CardList; !reflect.DeepEqual(got, wantCard) {
			t.Errorf("%s: cardinality list %v, want %v over the log at Γ=%d", m.Name(), got, wantCard, gamma)
		}
	}
	full, err := Derive(w, Cardinality, DeriveOptions{Gamma: 2, GammaPerModule: opts.GammaPerModule, Costs: opts.Costs})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(full.Modules, card.Modules) {
		t.Error("cardinality lists ignore the recorded log")
	}
}

// TestDeriveSetMinimal: on Fig. 1's m1 at Γ=4 every option is safe and
// minimal, {a4, a5} is among them (Example 3), and each option lists its
// inputs, then its outputs, in the module's order.
func TestDeriveSetMinimal(t *testing.T) {
	mv := privacy.NewModuleView(module.Fig1M1())
	list, err := DeriveSet(mv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no minimal safe hidden sets")
	}
	all := relation.NewNameSet(mv.Attrs()...)
	pos := make(map[string]int)
	for i, a := range mv.Attrs() {
		pos[a] = i
	}
	found := false
	for _, req := range list {
		names := append(append([]string{}, req.In...), req.Out...)
		for i := 1; i < len(names); i++ {
			if pos[names[i-1]] >= pos[names[i]] {
				t.Errorf("option %v not in module order", req)
			}
		}
		h := req.Attrs()
		if safe, _ := mv.IsSafe(all.Minus(h), 4); !safe {
			t.Errorf("option %v not safe", req)
		}
		// Removing any single element must break safety.
		for a := range h {
			sub := h.Clone()
			delete(sub, a)
			if safe, _ := mv.IsSafe(all.Minus(sub), 4); safe {
				t.Errorf("option %v not minimal: %v also safe", req, sub)
			}
		}
		if h.Equal(relation.NewNameSet("a4", "a5")) {
			found = true
		}
	}
	if !found {
		t.Errorf("{a4,a5} missing from the options: %v", list)
	}
}

// cardByDefinition is the cardinality list straight from its definition:
// the Pareto-minimal pairs (α, β) for which every hidden set of exactly α
// inputs and β outputs is safe under the interpreted Lemma 4 test, by
// ascending α.
func cardByDefinition(t *testing.T, mv privacy.ModuleView, gamma uint64) []CardReq {
	t.Helper()
	nI, nO := len(mv.Inputs), len(mv.Outputs)
	attrs := mv.Attrs()
	good := make([][]bool, nI+1)
	for a := range good {
		good[a] = make([]bool, nO+1)
		for b := range good[a] {
			good[a][b] = true
		}
	}
	for mask := 0; mask < 1<<len(attrs); mask++ {
		visible := relation.NewNameSet()
		alpha, beta := 0, 0
		for i, a := range attrs {
			switch {
			case mask&(1<<i) == 0:
				visible.Add(a)
			case i < nI:
				alpha++
			default:
				beta++
			}
		}
		safe, err := mv.IsSafe(visible, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if !safe {
			good[alpha][beta] = false
		}
	}
	var want []CardReq
	for a := 0; a <= nI; a++ {
		for b := 0; b <= nO; b++ {
			minimal := good[a][b]
			for a2 := 0; a2 <= a && minimal; a2++ {
				for b2 := 0; b2 <= b; b2++ {
					if (a2 != a || b2 != b) && good[a2][b2] {
						minimal = false
						break
					}
				}
			}
			if minimal {
				want = append(want, CardReq{Alpha: a, Beta: b})
			}
		}
	}
	return want
}

// TestDeriveCardMatchesDefinition pins DeriveCard's mask queries to the
// definition of the cardinality list, on seeded random modules (at most 8
// attributes, domains 2 and 3, Γ 1–4) and on Example 6's one-one and
// majority modules.
func TestDeriveCardMatchesDefinition(t *testing.T) {
	type view struct {
		mv    privacy.ModuleView
		gamma uint64
	}
	views := []view{
		{privacy.NewModuleView(identityModule(3)), 2},
		{privacy.NewModuleView(identityModule(3)), 8},
		{privacy.NewModuleView(majorityModule([]string{"x1", "x2", "x3", "x4"})), 2},
	}
	rng := rand.New(rand.NewSource(23))
	attrs := func(prefix string, n int) []relation.Attribute {
		out := make([]relation.Attribute, n)
		for i := range out {
			out[i] = relation.Attribute{Name: fmt.Sprintf("%s%d", prefix, i), Domain: 2 + rng.Intn(2)}
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(7) // 2..8 attributes
		nIn := 1 + rng.Intn(k-1)
		m := module.Random("m", attrs("x", nIn), attrs("y", k-nIn), rng)
		views = append(views, view{privacy.NewModuleView(m), uint64(1 + rng.Intn(4))})
	}
	for i, c := range views {
		got, err := DeriveCard(c.mv, c.gamma)
		if err != nil {
			t.Fatal(err)
		}
		if want := cardByDefinition(t, c.mv, c.gamma); !slices.Equal(got, want) {
			t.Errorf("view %d (%v→%v, Γ=%d): DeriveCard %v, definition %v",
				i, c.mv.Inputs, c.mv.Outputs, c.gamma, got, want)
		}
	}
}
