package solve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// within compares float cost sums up to the accumulation-order noise of
// map-iterated summation (the harness's eps convention).
func within(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+a+b)
}

func TestRegistryNamesAndCapabilities(t *testing.T) {
	want := []string{"approx-labelcover", "approx-setcover", "engine", "exact", "greedy", "lp", "portfolio"}
	if got := solve.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	infos := solve.Solvers()
	if len(infos) != len(want) {
		t.Fatalf("Solvers() returned %d entries, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Fatalf("Solvers()[%d] = %q, want %q", i, info.Name, want[i])
		}
		if !info.Capabilities.Cardinality && !info.Capabilities.Set {
			t.Errorf("%s declares no variant at all", info.Name)
		}
	}
	p := gen.Problem(gen.ProblemConfig{Modules: 4}, 1)
	if s, _ := solve.Get("approx-labelcover"); s.Supports(p, secureview.Cardinality) == nil {
		t.Error("approx-labelcover claims to support the cardinality variant")
	}
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		if s, _ := solve.Get("exact"); s.Supports(p, v) != nil {
			t.Errorf("exact rejects a valid %v instance", v)
		}
	}
	// public-mix instances are outside the engine's cost model.
	for seed := int64(0); seed < 20; seed++ {
		pm := gen.Problem(gen.ProblemConfig{Modules: 6, PublicFrac: 1}, seed)
		hasPublic := false
		for _, m := range pm.Modules {
			if m.Public {
				hasPublic = true
			}
		}
		if !hasPublic {
			continue
		}
		if s, _ := solve.Get("engine"); s.Supports(pm, secureview.Set) == nil {
			t.Error("engine claims to support an instance with public modules")
		}
		break
	}
	for _, name := range []string{"nope", "bb"} {
		if _, err := solve.Solve(context.Background(), name, p, solve.Options{}); err == nil {
			t.Errorf("unknown solver name %q did not error", name)
		}
	}
}

// TestRegistryAgreesWithDirectCalls is the compatibility contract: each
// registered wrapper must reproduce its underlying solver bit for bit
// (solutions and costs), and the exact family must agree with each other.
func TestRegistryAgreesWithDirectCalls(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.ProblemClasses() {
		for seed := int64(0); seed < 5; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			name := fmt.Sprintf("%s/seed=%d", pc.Name, seed)

			// Set variant.
			direct, err := secureview.ExactSet(p, 1<<22)
			res, err2 := solve.Solve(ctx, "exact", p, solve.Options{Variant: secureview.Set})
			if err != nil || err2 != nil {
				t.Fatalf("%s: exact set err=%v registry err=%v", name, err, err2)
			}
			if !res.Optimal || !within(p.Cost(direct), res.Cost) {
				t.Errorf("%s: registry exact cost %g (optimal=%v), direct %g", name, res.Cost, res.Optimal, p.Cost(direct))
			}
			for _, eng := range solve.For(p, secureview.Set) {
				if eng.Name() != "engine" {
					continue
				}
				er, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: secureview.Set})
				if err != nil {
					t.Fatalf("%s: engine: %v", name, err)
				}
				if !within(er.Cost, res.Cost) {
					t.Errorf("%s: engine cost %g != exact %g", name, er.Cost, res.Cost)
				}
				if er.Counters.Checked+er.Counters.Pruned == 0 {
					t.Errorf("%s: engine reported no counters", name)
				}
			}

			// Cardinality variant.
			ref, err := secureview.BruteForceCard(p, 22)
			if err != nil {
				t.Fatalf("%s: brute-force card: %v", name, err)
			}
			exRes, err := solve.Solve(ctx, "exact", p, solve.Options{Variant: secureview.Cardinality})
			if err != nil {
				t.Fatalf("%s: exact card: %v", name, err)
			}
			if !exRes.Optimal || !within(p.Cost(ref), exRes.Cost) {
				t.Errorf("%s: exact card cost %g (optimal=%v) != brute-force cost %g", name, exRes.Cost, exRes.Optimal, p.Cost(ref))
			}
			if exRes.Counters.Nodes == 0 {
				t.Errorf("%s: exact card counters empty", name)
			}

			// Heuristic certificates: feasible, ordered, and within their
			// own Bound when one is attached.
			for _, solver := range []string{"greedy", "lp"} {
				for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
					hr, err := solve.Solve(ctx, solver, p, solve.Options{Variant: v})
					if err != nil {
						t.Fatalf("%s: %s/%v: %v", name, solver, v, err)
					}
					if !p.Feasible(hr.Solution, v) {
						t.Errorf("%s: %s/%v solution infeasible", name, solver, v)
					}
					opt := exRes.Cost
					if v == secureview.Set {
						opt = res.Cost
					}
					if hr.Cost < opt-1e-9 {
						t.Errorf("%s: %s/%v cost %g below optimum %g", name, solver, v, hr.Cost, opt)
					}
					if hr.Bound.Factor > 0 && hr.Cost > hr.Bound.Factor*opt+1e-9*(1+hr.Cost) {
						t.Errorf("%s: %s/%v cost %g breaks its certificate %g×%g (%s)",
							name, solver, v, hr.Cost, hr.Bound.Factor, opt, hr.Bound.Theorem)
					}
					if hr.Bound.LP > opt+1e-9*(1+opt) {
						t.Errorf("%s: %s/%v LP bound %g above optimum %g", name, solver, v, hr.Bound.LP, opt)
					}
				}
			}
		}
	}
}

// TestSessionSharesDerivations asserts the singleflight contract: N
// goroutines requesting the same workflow fingerprint get the SAME derived
// problem pointer from ONE derivation.
func TestSessionSharesDerivations(t *testing.T) {
	it := gen.MustNew(gen.Config{Topology: gen.Layered, Share: 2}, 3)
	sess := solve.NewSession()
	const workers = 8
	got := make([]*secureview.Problem, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sess.Problem(context.Background(), it.W, secureview.Set,
				it.Gamma, it.Costs, it.PrivatizeCosts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("worker %d received a different problem pointer", i)
		}
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats hits=%d misses=%d, want %d/1", st.Hits, st.Misses, workers-1)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats entries=%d bytes=%d, want one sized entry", st.Entries, st.Bytes)
	}
	// A different variant is a different fingerprint.
	if _, err := sess.Problem(context.Background(), it.W, secureview.Cardinality,
		it.Gamma, it.Costs, it.PrivatizeCosts); err != nil {
		t.Fatalf("cardinality derivation: %v", err)
	}
	if st := sess.Stats(); st.Misses != 2 {
		t.Fatalf("cardinality request did not miss (misses=%d)", st.Misses)
	}
	// The derived problem matches the instance's own derivation.
	direct, err := it.Derive(secureview.Set)
	if err != nil {
		t.Fatal(err)
	}
	if gen.ProblemFingerprint(direct) != gen.ProblemFingerprint(got[0]) {
		t.Fatal("session-derived problem differs from Instance.Derive")
	}
}

// TestSolveBatch shards a solver matrix over the pool and checks order,
// completeness and cross-solver agreement of the results.
func TestSolveBatch(t *testing.T) {
	var jobs []solve.Job
	var problems []*secureview.Problem
	for seed := int64(0); seed < 6; seed++ {
		p := gen.Problem(gen.ProblemConfig{Modules: 5}, seed)
		problems = append(problems, p)
		for _, s := range []string{"exact", "engine", "greedy", "lp"} {
			jobs = append(jobs, solve.Job{
				Name:    fmt.Sprintf("seed%d/%s", seed, s),
				Problem: p,
				Solver:  s,
				Options: solve.Options{Variant: secureview.Cardinality},
			})
		}
	}
	results := solve.SolveBatch(context.Background(), jobs, 4)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Job.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: %s != %s", i, r.Job.Name, jobs[i].Name)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.Name, r.Err)
		}
	}
	// exact and engine agree per seed; heuristics are never cheaper.
	for seed := 0; seed < 6; seed++ {
		base := seed * 4
		exact, eng := results[base].Result, results[base+1].Result
		if !within(exact.Cost, eng.Cost) {
			t.Errorf("seed %d: exact %g != engine %g", seed, exact.Cost, eng.Cost)
		}
		for _, heur := range []solve.Result{results[base+2].Result, results[base+3].Result} {
			if heur.Cost < exact.Cost-1e-9 {
				t.Errorf("seed %d: %s cost %g below optimum %g", seed, heur.Solver, heur.Cost, exact.Cost)
			}
			if !problems[seed].Feasible(heur.Solution, secureview.Cardinality) {
				t.Errorf("seed %d: %s solution infeasible", seed, heur.Solver)
			}
		}
	}
}

// TestSolveBatchCancelledContext: a dead batch context fails every job with
// the context error instead of hanging or panicking.
func TestSolveBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.Problem(gen.ProblemConfig{Modules: 4}, 1)
	jobs := []solve.Job{
		{Name: "a", Problem: p, Solver: "exact", Options: solve.Options{Variant: secureview.Set}},
		{Name: "b", Problem: p, Solver: "greedy", Options: solve.Options{Variant: secureview.Set}},
	}
	for _, r := range solve.SolveBatch(ctx, jobs, 2) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.Job.Name, r.Err)
		}
	}
}

// TestEngineWarmResumeMatchesCold: Options.Resume is accepted and ignored.
// Per generated class, a solve handed a resume value after a cost-only
// edit returns exactly the cold solve of the edited instance: optimum,
// cost bits and counters, with nothing resumed and no frontier exported.
func TestEngineWarmResumeMatchesCold(t *testing.T) {
	ctx := context.Background()
	eng, _ := solve.Get("engine")
	for _, pc := range gen.ProblemClasses() {
		p := gen.Problem(pc.Cfg, 3)
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			if eng.Supports(p, v) != nil {
				continue
			}
			name := fmt.Sprintf("%s/%s", pc.Name, v)
			ep := &secureview.Problem{Modules: p.Modules, Costs: editCosts(p, 2)}
			cold, err := solve.Solve(ctx, "engine", ep, solve.Options{Variant: v, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm, err := solve.Solve(ctx, "engine", ep,
				solve.Options{Variant: v, Workers: 1, Resume: &solve.RetiredFrontier{}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if warm.Resumed || warm.Frontier != nil {
				t.Fatalf("%s: resumed=%v frontier=%v, want a cold solve", name, warm.Resumed, warm.Frontier)
			}
			if !warm.Solution.Hidden.Equal(cold.Solution.Hidden) || math.Float64bits(warm.Cost) != math.Float64bits(cold.Cost) {
				t.Fatalf("%s: optimum %v (%g) != cold %v (%g)", name,
					warm.Solution.Hidden.Sorted(), warm.Cost, cold.Solution.Hidden.Sorted(), cold.Cost)
			}
			if warm.Counters != cold.Counters {
				t.Fatalf("%s: counters %+v != cold %+v", name, warm.Counters, cold.Counters)
			}
		}
	}
}

// TestLPBoundRepeats: the set LP adds each option's rows in the option's
// own order, so the simplex sums alike on every call and repeated lp
// solves of one instance return the same LP bound bit for bit. On these
// four instances the bound's last bit depends on the order of the rows.
func TestLPBoundRepeats(t *testing.T) {
	for _, ref := range []gen.InstanceRef{
		{Class: "shared", Seed: 1}, {Class: "shared", Seed: 6},
		{Class: "wide", Seed: 9}, {Class: "public-mix", Seed: 15},
	} {
		rv, err := gen.Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		p, err := rv.Derive()
		if err != nil {
			t.Fatal(err)
		}
		var first uint64
		for i := 0; i < 50; i++ {
			res, err := solve.Solve(context.Background(), "lp", p, solve.Options{Variant: secureview.Set})
			if err != nil {
				t.Fatalf("%s: %v", rv.Name, err)
			}
			if bits := math.Float64bits(res.Bound.LP); i == 0 {
				first = bits
			} else if bits != first {
				t.Fatalf("%s: solve %d bound %v, first %v", rv.Name, i, res.Bound.LP, math.Float64frombits(first))
			}
		}
	}
}
