package diff

import (
	"context"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// TestDifferentialSuite is the acceptance property test of the scenario
// harness: across every workflow topology class and abstract problem class,
// at least 200 generated instances (in full mode) go through the complete
// solver matrix with ZERO disagreements — greedy and LP always feasible and
// within the paper's approximation bounds of the exact optimum, exact
// enumeration == branch-and-bound == engine, compiled oracle == interpreted
// Lemma 4 on every subset, the bitmask-compiled problem == Problem.Feasible
// on every mask of small universes (and the engine over it == the
// reference-oracle engine), and exhaustively enumerated workflow privacy on
// the small instances. -short trims the corpus but keeps every class.
func TestDifferentialSuite(t *testing.T) {
	workflowSeeds, problemSeeds := int64(10), int64(40)
	if testing.Short() {
		workflowSeeds, problemSeeds = 2, 5
	}
	// One solve.Session across the whole suite: derived problems are
	// shared across instances exactly as a long-lived server would share
	// them across requests.
	sess := solve.NewSession()
	var results []Result
	for _, cl := range gen.Classes() {
		for seed := int64(0); seed < workflowSeeds; seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", cl.Name, seed, err)
			}
			results = append(results, CheckInstance(it, Options{Session: sess}))
		}
	}
	for _, pc := range gen.ProblemClasses() {
		for seed := int64(0); seed < problemSeeds; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			results = append(results, CheckProblem(pc.Name, p, Options{}))
		}
	}
	total := Merge(results...)
	for _, v := range total.Violations {
		t.Error(v)
	}
	t.Logf("instances=%d exact=%d solverRuns=%d oracleMasks=%d compiledMasks=%d exactPinned=%d worldsVerified=%d skips=%d maxGreedyRatio=%.3f maxLPRatio=%.3f",
		total.Instances, total.Exact, total.SolverRuns, total.OracleMasks, total.CompiledMasks,
		total.ExactPinned, total.WorldsVerified, total.Skips, total.MaxGreedyRatio, total.MaxLPRatio)
	wantInstances, wantExact := 200, 150
	if testing.Short() {
		wantInstances, wantExact = 30, 20
	}
	if total.Instances < wantInstances {
		t.Errorf("suite covered %d instances, want >= %d", total.Instances, wantInstances)
	}
	if total.Exact < wantExact {
		t.Errorf("only %d instances anchored by an exact optimum, want >= %d", total.Exact, wantExact)
	}
	if total.OracleMasks == 0 {
		t.Error("no compiled-vs-interpreted oracle masks compared")
	}
	if total.CompiledMasks == 0 {
		t.Error("no compiled-vs-reference feasibility masks compared")
	}
	if total.ExactPinned == 0 {
		t.Error("no exact optimum compared with the (cost, lex) reference")
	}
	if total.WorldsVerified == 0 {
		t.Error("no instance verified by exhaustive worlds enumeration")
	}
}

// TestDifferentialResultDeterministic re-runs one instance and requires the
// identical aggregate (GOMAXPROCS-independent solver outputs feed fixed
// counters).
func TestDifferentialResultDeterministic(t *testing.T) {
	it := gen.MustNew(gen.Config{Topology: gen.Layered, Funcs: gen.MixedFuncs, Share: 2}, 3)
	a := CheckInstance(it, Options{})
	b := CheckInstance(it, Options{})
	if a.SolverRuns != b.SolverRuns || a.OracleMasks != b.OracleMasks || a.CompiledMasks != b.CompiledMasks ||
		a.WorldsVerified != b.WorldsVerified || a.Skips != b.Skips ||
		a.MaxGreedyRatio != b.MaxGreedyRatio || a.MaxLPRatio != b.MaxLPRatio ||
		len(a.Violations) != len(b.Violations) {
		t.Fatalf("differential result not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestCancelledHarnessReportsSkipsNotViolations: tearing a harness run
// down mid-flight must yield a clean (incomplete) Result — cancellation is
// a skip, never a spurious solver "violation".
func TestCancelledHarnessReportsSkipsNotViolations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.Problem(gen.ProblemConfig{Modules: 4}, 1)
	r := CheckProblemCtx(ctx, "cancelled", p, Options{})
	if len(r.Violations) != 0 {
		t.Fatalf("cancelled run produced violations: %v", r.Violations)
	}
	if r.Skips == 0 {
		t.Fatal("cancelled run recorded no skips")
	}
	it := gen.MustNew(gen.Config{Topology: gen.Chain, Modules: 3}, 1)
	ri := CheckInstanceCtx(ctx, it, Options{})
	if len(ri.Violations) != 0 {
		t.Fatalf("cancelled instance run produced violations: %v", ri.Violations)
	}
}

// TestHarnessCatchesBrokenSolver proves the violation channel fires (a
// harness that can't fail verifies nothing): checking heuristics against a
// falsified optimum far above the true one must report them as "cheaper
// than optimal".
func TestHarnessCatchesBrokenSolver(t *testing.T) {
	p := gen.Problem(gen.ProblemConfig{Modules: 3}, 1)
	var r Result
	r.checkHeuristics(context.Background(), "tampered", p, secureview.Set, 1e9, true, p.Multiplicity(), Options{}.withDefaults())
	if len(r.Violations) == 0 {
		t.Fatal("harness accepted heuristic solutions cheaper than the claimed optimum")
	}
}
