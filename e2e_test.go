package secureview

// End-to-end integration tests: concrete workflows through derivation,
// optimization, publication and (on tiny instances) exhaustive possible-
// world verification of the workflow-privacy guarantee.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"secureview/internal/gen"
	"secureview/internal/gen/diff"
	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/provenance"
	"secureview/internal/relation"
	sv "secureview/internal/secureview"
	"secureview/internal/spec"
	"secureview/internal/workflow"
	"secureview/internal/worlds"
)

// TestEndToEndFig1AllSolvers runs the full pipeline on the paper's Figure 1
// workflow with every solver, audits the views, and verifies workflow
// privacy by exhaustive world enumeration whenever the initial inputs stay
// visible.
func TestEndToEndFig1AllSolvers(t *testing.T) {
	w := workflow.Fig1()
	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Uniform(w.Schema().Names()...)
	for _, solver := range []string{"exact", "greedy", "lp"} {
		t.Run(solver, func(t *testing.T) {
			view, err := store.SecureView(context.Background(), 2, costs, nil, solver)
			if err != nil {
				t.Fatal(err)
			}
			if err := view.VerifyStandalone(); err != nil {
				t.Fatal(err)
			}
			// Exhaustive semantic verification (Definition 5) when the
			// enumerator's precondition holds.
			initialVisible := true
			for _, a := range w.InitialInputNames() {
				if !view.Visible.Has(a) {
					initialVisible = false
				}
			}
			if !initialVisible {
				t.Skip("initial input hidden; enumeration precondition not met")
			}
			e := &worlds.Enumerator{W: w, R: store.Relation(), Visible: view.Visible}
			for _, m := range w.Modules() {
				ok, err := e.IsWorkflowPrivate(m.Name(), 2)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("solver %v: module %s not 2-workflow-private", solver, m.Name())
				}
			}
		})
	}
}

// TestEndToEndRandomWorkflows drives random layered workflows through
// derivation and the exact solver, then verifies every private module's
// standalone guarantee on the published view.
func TestEndToEndRandomWorkflows(t *testing.T) {
	layered := gen.Config{Topology: gen.Layered, Layers: 2, Width: 2, FanIn: 2, FanOut: 1, Share: 2}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			it, err := gen.New(layered, seed)
			if err != nil {
				t.Fatal(err)
			}
			w, costs := it.W, it.Costs
			p, err := sv.Derive(w, sv.Set, sv.DeriveOptions{Gamma: 2, Costs: costs})
			if err != nil {
				t.Skipf("no safe subsets at Γ=2: %v", err)
			}
			sol, err := sv.ExactSet(p, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range w.Modules() {
				mv := privacy.NewModuleView(m)
				vis := relation.NewNameSet(mv.Attrs()...).Minus(sol.Hidden)
				safe, err := mv.IsSafe(vis, 2)
				if err != nil || !safe {
					t.Errorf("module %s unsafe under optimal view", m.Name())
				}
			}
		})
	}
}

// TestEndToEndGeneratedScenarios drives every canonical generated topology
// class (internal/gen) through the full cross-solver differential harness
// (internal/gen/diff): solver agreement, approximation bounds, compiled-
// vs-interpreted oracle agreement and — on the small instances —
// exhaustive possible-world verification. Zero violations expected.
func TestEndToEndGeneratedScenarios(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	for _, cl := range gen.Classes() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			var results []diff.Result
			for seed := int64(0); seed < seeds; seed++ {
				it, err := gen.New(cl.Cfg, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				results = append(results, diff.CheckInstance(it, diff.Options{}))
			}
			total := diff.Merge(results...)
			for _, v := range total.Violations {
				t.Error(v)
			}
			if total.Exact == 0 {
				t.Errorf("class %s: no instance anchored by an exact optimum", cl.Name)
			}
		})
	}
}

// TestSpecToViewPipeline parses a workflow spec, publishes a view, and
// checks the export leaks nothing hidden.
func TestSpecToViewPipeline(t *testing.T) {
	doc, err := spec.FromWorkflow(workflow.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	doc.Gamma = 2
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	w, err := parsed.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	view, err := store.SecureView(context.Background(), 2, privacy.Uniform(w.Schema().Names()...), nil, "exact")
	if err != nil {
		t.Fatal(err)
	}
	export, err := view.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var deserialized map[string]any
	if err := json.Unmarshal(export, &deserialized); err != nil {
		t.Fatal(err)
	}
	for _, h := range view.HiddenSorted() {
		if strings.Contains(string(export), `"`+h+`"`) {
			t.Errorf("hidden attribute %q in export", h)
		}
	}
}

// Property: for random 2-module chains, the LP-rounded view is never
// cheaper than the exact one and both satisfy all standalone guarantees.
func TestQuickEndToEndSolverOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := module.Random("m1", relation.Bools("x1", "x2"), relation.Bools("u1", "u2"), rng)
		m2 := module.Random("m2", relation.Bools("u1", "u2"), relation.Bools("v1", "v2"), rng)
		w, err := workflow.New("chain", m1, m2)
		if err != nil {
			return false
		}
		store := provenance.NewStore(w)
		if err := store.RecordAll(1 << 10); err != nil {
			return false
		}
		costs := privacy.Uniform(w.Schema().Names()...)
		exact, err := store.SecureView(context.Background(), 2, costs, nil, "exact")
		if err != nil {
			return true // no safe subset for this random module; fine
		}
		lp, err := store.SecureView(context.Background(), 2, costs, nil, "lp")
		if err != nil {
			return false
		}
		greedy, err := store.SecureView(context.Background(), 2, costs, nil, "greedy")
		if err != nil {
			return false
		}
		return exact.Cost <= lp.Cost+1e-9 && exact.Cost <= greedy.Cost+1e-9 &&
			exact.VerifyStandalone() == nil &&
			lp.VerifyStandalone() == nil &&
			greedy.VerifyStandalone() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
