package solve_test

// The cancellation smoke tests of the solver layer: a deadline must stop
// every solver family within one pruning epoch — the engine's candidate
// loop, the exact solvers' search trees — rather than after the run would
// have finished anyway. Wall-clock assertions are generous (CI machines
// stall), but orders of magnitude below the uncancelled runtimes.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// promptly runs fn under a 50ms deadline and asserts it returns
// context.DeadlineExceeded well before the uncancelled runtime would allow.
func promptly(t *testing.T, what string, fn func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: err = %v, want context.DeadlineExceeded (elapsed %v)", what, err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("%s: took %v to notice a 50ms deadline", what, elapsed)
	}
}

// TestEngineDeadlineK18 is the acceptance smoke test: the pruned parallel
// engine on the k=18 benchmark instance (minutes naive, ~100ms+ engine)
// must surface a 50ms deadline within one candidate epoch.
func TestEngineDeadlineK18(t *testing.T) {
	mv, costs, gamma := exp.SearchBenchInstance(18)
	sp, err := search.NewSpace(mv.Attrs(), costs.Of)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }
	promptly(t, "engine k=18", func(ctx context.Context) error {
		_, err := sp.MinCostCtx(ctx, oracle, search.Options{})
		return err
	})
}

// sharedCardProblem returns a cardinality instance of 49 useful attributes
// whose modules share attributes, so the completion bound (the largest
// cheapest completion of one module) stays far below the optimum and the
// attribute branch and bound needs much more than 50ms, well inside a
// 2^62 node budget.
func sharedCardProblem() *secureview.Problem {
	return gen.Problem(gen.ProblemConfig{Modules: 24, MaxInputs: 3, Outputs: 2, Share: 2}, 7)
}

// TestBranchAndBoundDeadline: the exact cardinality solver under a 50ms
// deadline returns promptly AND carries its feasible greedy-seeded
// incumbent out as a partial result.
func TestBranchAndBoundDeadline(t *testing.T) {
	p := sharedCardProblem()
	var res solve.Result
	promptly(t, "exact card 49 attributes", func(ctx context.Context) error {
		var err error
		res, err = solve.Solve(ctx, "exact", p, solve.Options{
			Variant:    secureview.Cardinality,
			NodeBudget: 1 << 62, // admit the 2^49-leaf search
		})
		return err
	})
	if !res.Partial {
		t.Fatal("deadline-expired exact card returned no partial incumbent")
	}
	if !p.Feasible(res.Solution, secureview.Cardinality) {
		t.Fatal("partial incumbent infeasible")
	}
}

// twoOptionChain builds n independent private modules with exactly two set
// options each ("hide my input" / "hide my output"), so the exact set
// search space is exactly 2^n. No two modules share an attribute, so the
// optimum is the sum of the per-module cheapest options, and the bound,
// which sums over attribute-disjoint components, proves it at once.
func twoOptionChain(n int) *secureview.Problem {
	p := &secureview.Problem{Costs: map[string]float64{}}
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("a%03d", i)
		out := fmt.Sprintf("b%03d", i)
		p.Costs[in] = 1
		p.Costs[out] = 1.5
		p.Modules = append(p.Modules, secureview.ModuleSpec{
			Name: fmt.Sprintf("m%03d", i), Inputs: []string{in}, Outputs: []string{out},
			SetList: []secureview.SetReq{{In: []string{in}}, {Out: []string{out}}},
		})
	}
	return p
}

// TestExactSetDisjointModulesClose: on 55 attribute-disjoint modules the
// 2^55-leaf option tree closes inside a short deadline at the optimum,
// hiding every module's cheaper input.
func TestExactSetDisjointModulesClose(t *testing.T) {
	p := twoOptionChain(55)
	res, err := solve.Solve(context.Background(), "exact", p, solve.Options{
		Variant:    secureview.Set,
		NodeBudget: 1 << 60,
		Timeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("exact set on 55 disjoint modules: %v", err)
	}
	if !res.Optimal || res.Cost != 55 || len(res.Solution.Hidden) != 55 {
		t.Fatalf("optimal=%v cost=%v hides %d, want the optimum 55 hiding every input", res.Optimal, res.Cost, len(res.Solution.Hidden))
	}
}

// sharedChain builds n private modules in a path: module i has input a_i
// and output a_{i+1}, and may hide either. Neighbours share an attribute,
// so every module lies in one component and the bound is a single
// module's marginal, while the option tree has 2^n leaves: at n=60 the
// search needs much more than 50ms, inside a 2^60 node budget.
func sharedChain(n int) *secureview.Problem {
	p := &secureview.Problem{Costs: map[string]float64{}}
	attr := func(i int) string { return fmt.Sprintf("a%03d", i) }
	for i := 0; i <= n; i++ {
		p.Costs[attr(i)] = float64(1 + i%3)
	}
	for i := 0; i < n; i++ {
		p.Modules = append(p.Modules, secureview.ModuleSpec{
			Name: fmt.Sprintf("m%03d", i), Inputs: []string{attr(i)}, Outputs: []string{attr(i + 1)},
			SetList: []secureview.SetReq{{In: []string{attr(i)}}, {Out: []string{attr(i + 1)}}},
		})
	}
	return p
}

// TestExactSetDeadline: the set-variant branch and bound notices the
// deadline inside its option tree (the space check alone would pass).
func TestExactSetDeadline(t *testing.T) {
	p := sharedChain(60)
	var res solve.Result
	promptly(t, "exact set 2^60 options", func(ctx context.Context) error {
		var err error
		res, err = solve.Solve(ctx, "exact", p, solve.Options{
			Variant:    secureview.Set,
			NodeBudget: 1 << 60,
		})
		return err
	})
	if !res.Partial || !p.Feasible(res.Solution, secureview.Set) {
		t.Fatal("deadline-expired exact set returned no feasible incumbent")
	}
}

// TestOptionsTimeoutAppliesDeadline: the per-job Timeout in Options is
// enough — no caller-supplied context needed.
func TestOptionsTimeoutAppliesDeadline(t *testing.T) {
	p := sharedCardProblem()
	start := time.Now()
	res, err := solve.Solve(context.Background(), "exact", p, solve.Options{
		Variant:    secureview.Cardinality,
		NodeBudget: 1 << 62,
		Timeout:    50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Options.Timeout took %v to fire", elapsed)
	}
	if !res.Partial {
		t.Fatal("no partial incumbent")
	}
}

// TestNodeBudgetTyped: an exact search whose leaves exceed the node budget
// is refused up front, errors.Is-able as secureview.ErrNodeBudget, with no
// search and no incumbent, for both variants, directly and through the
// registry; the brute-force reference refuses its own cap the same way.
func TestNodeBudgetTyped(t *testing.T) {
	p := gen.Problem(gen.ProblemConfig{Modules: 40, MaxInputs: 3, Outputs: 2}, 3)
	if _, err := secureview.ExactSet(p, 4); !errors.Is(err, secureview.ErrNodeBudget) {
		t.Errorf("ExactSet tiny budget: err = %v, want ErrNodeBudget", err)
	}
	if _, err := secureview.ExactCardBB(p, 50); !errors.Is(err, secureview.ErrNodeBudget) {
		t.Errorf("ExactCardBB tiny budget: err = %v, want ErrNodeBudget", err)
	}
	if _, err := secureview.BruteForceCard(p, 2); !errors.Is(err, secureview.ErrNodeBudget) {
		t.Errorf("BruteForceCard tiny attr cap: err = %v, want ErrNodeBudget", err)
	}
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		res, err := solve.Solve(context.Background(), "exact", p, solve.Options{Variant: v, NodeBudget: 50})
		if !errors.Is(err, secureview.ErrNodeBudget) || res.Partial || res.Counters.Nodes != 0 {
			t.Errorf("registry exact %v: err=%v partial=%v nodes=%d, want ErrNodeBudget before any node",
				v, err, res.Partial, res.Counters.Nodes)
		}
	}
}
