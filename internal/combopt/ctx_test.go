package combopt

// Tests for the context-aware, weighted solver entry points: agreement with
// brute-force optima, typed budget errors, cancellation, and the 50ms-
// deadline smoke the CI cancellation step runs.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// bruteForceSetCover returns the least total weight of a cover, over every
// subset of the sets.
func bruteForceSetCover(sc SetCover) float64 {
	best := math.Inf(1)
	for m := 0; m < 1<<len(sc.Sets); m++ {
		var chosen []int
		for i := range sc.Sets {
			if m&(1<<i) != 0 {
				chosen = append(chosen, i)
			}
		}
		if sc.IsCover(chosen) {
			best = min(best, sc.CostOf(chosen))
		}
	}
	return best
}

// bruteForceLabelCover returns the least weight of a feasible assignment,
// over every (vertex, label) subset.
func bruteForceLabelCover(lc LabelCover) float64 {
	best := math.Inf(1)
	n := (lc.NU + lc.NW) * lc.L
	for m := 0; m < 1<<n; m++ {
		a := lc.emptyAssignment()
		for b := 0; b < n; b++ {
			a[b/lc.L][b%lc.L] = m&(1<<b) != 0
		}
		if lc.Feasible(a) {
			best = min(best, lc.CostOf(a))
		}
	}
	return best
}

// bruteForceVertexCover returns the size of a minimum vertex cover, over
// every vertex subset.
func bruteForceVertexCover(g Graph) int {
	best := g.N
	for m := 0; m < 1<<g.N; m++ {
		var vs []int
		for v := 0; v < g.N; v++ {
			if m&(1<<v) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) < best && g.IsVertexCover(vs) {
			best = len(vs)
		}
	}
	return best
}

// TestCtxSolversMatchBruteForce: on small random instances, unit-weighted
// and weighted, every exact Ctx solver returns a solution that costs the
// brute-force optimum, and every greedy one a feasible solution that costs
// no less.
func TestCtxSolversMatchBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sc := RandomSetCover(3+rng.Intn(6), 2+rng.Intn(9), 0.35, rng)
		if rng.Intn(2) == 0 {
			for range sc.Sets {
				sc.Weights = append(sc.Weights, float64(rng.Intn(4)))
			}
		}
		want := bruteForceSetCover(sc)
		cover, err := sc.GreedyCtx(ctx)
		if err != nil {
			t.Fatalf("trial %d: GreedyCtx: %v", trial, err)
		}
		if !sc.IsCover(cover) || sc.CostOf(cover) < want {
			t.Fatalf("trial %d: GreedyCtx picked %v (cost %g) against optimum %g", trial, cover, sc.CostOf(cover), want)
		}
		exact, err := sc.ExactCtx(ctx, 0)
		if err != nil {
			t.Fatalf("trial %d: ExactCtx: %v", trial, err)
		}
		if !sc.IsCover(exact) || sc.CostOf(exact) != want {
			t.Errorf("trial %d: ExactCtx picked %v (cost %g), want optimum %g", trial, exact, sc.CostOf(exact), want)
		}

		lc := RandomLabelCover(1+rng.Intn(2), 1+rng.Intn(2), 2+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(3), rng)
		if rng.Intn(2) == 0 {
			lc.Weights = make([][]float64, lc.NU+lc.NW)
			for v := range lc.Weights {
				for l := 0; l < lc.L; l++ {
					lc.Weights[v] = append(lc.Weights[v], float64(rng.Intn(4)))
				}
			}
		}
		wantLC := bruteForceLabelCover(lc)
		a, err := lc.GreedyAssignmentCtx(ctx)
		if err != nil {
			t.Fatalf("trial %d: GreedyAssignmentCtx: %v", trial, err)
		}
		if !lc.Feasible(a) || lc.CostOf(a) < wantLC {
			t.Fatalf("trial %d: GreedyAssignmentCtx cost %g (feasible %v) against optimum %g", trial, lc.CostOf(a), lc.Feasible(a), wantLC)
		}
		ea, err := lc.ExactCtx(ctx, 0)
		if err != nil {
			t.Fatalf("trial %d: label ExactCtx: %v", trial, err)
		}
		if !lc.Feasible(ea) || lc.CostOf(ea) != wantLC {
			t.Errorf("trial %d: label ExactCtx cost %g (feasible %v), want optimum %g", trial, lc.CostOf(ea), lc.Feasible(ea), wantLC)
		}

		g := RandomGraph(4+rng.Intn(8), 3+rng.Intn(12), rng)
		vc, err := g.ExactVertexCoverCtx(ctx, 0)
		if err != nil {
			t.Fatalf("trial %d: ExactVertexCoverCtx: %v", trial, err)
		}
		if !g.IsVertexCover(vc) || len(vc) != bruteForceVertexCover(g) {
			t.Errorf("trial %d: ExactVertexCoverCtx picked %v, want a cover of size %d", trial, vc, bruteForceVertexCover(g))
		}
	}
}

// TestWeightedGreedyCtxPrefersCheapSets: the weighted greedy must optimize
// weight, not cardinality. On {0},{1} at weight 1 vs {0,1} at weight 3 a
// greedy by coverage alone takes the big set; the weighted one must not.
func TestWeightedGreedyCtxPrefersCheapSets(t *testing.T) {
	sc := SetCover{N: 2, Sets: [][]int{{0}, {1}, {0, 1}}, Weights: []float64{1, 1, 3}}
	cover, err := sc.GreedyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.CostOf(cover); got != 2 {
		t.Errorf("weighted greedy cost %g, want 2 (sets %v)", got, cover)
	}
	exact, err := sc.ExactCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.CostOf(exact); got != 2 {
		t.Errorf("weighted exact cost %g, want 2", got)
	}
}

// TestCtxBudgetTyped: a one-node budget trips on the first branch of every
// budgeted solver and the error is the typed sentinel, matching how the
// solve registry distinguishes budget exhaustion from broken instances.
func TestCtxBudgetTyped(t *testing.T) {
	ctx := context.Background()
	sc := SetCover{N: 2, Sets: [][]int{{0}, {1}, {0, 1}}, Weights: []float64{1, 1, 3}}
	if _, err := sc.ExactCtx(ctx, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("set cover: err = %v, want ErrBudget", err)
	}
	rng := rand.New(rand.NewSource(5))
	lc := RandomLabelCover(2, 2, 3, 2, 2, rng)
	if _, err := lc.ExactCtx(ctx, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("label cover: err = %v, want ErrBudget", err)
	}
	g := RandomGraph(10, 15, rng)
	if _, err := g.ExactVertexCoverCtx(ctx, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("vertex cover: err = %v, want ErrBudget", err)
	}
}

// TestCtxCancelledPromptly: a dead context surfaces as context.Canceled from
// every Ctx entry point without partial output.
func TestCtxCancelledPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(9))
	sc := RandomSetCover(10, 14, 0.3, rng)
	if _, err := sc.GreedyCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("GreedyCtx: err = %v, want context.Canceled", err)
	}
	if _, err := sc.ExactCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("set ExactCtx: err = %v, want context.Canceled", err)
	}
	lc := RandomLabelCover(3, 3, 3, 3, 2, rng)
	if _, err := lc.GreedyAssignmentCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("GreedyAssignmentCtx: err = %v, want context.Canceled", err)
	}
	if _, err := lc.ExactCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("label ExactCtx: err = %v, want context.Canceled", err)
	}
	// The vertex-cover search polls every 256 nodes, so it needs a search
	// big enough to reach the first poll.
	g := RandomCubicGraph(60, rng)
	if _, err := g.ExactVertexCoverCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactVertexCoverCtx: err = %v, want context.Canceled", err)
	}
}

// TestExactCtxDeadline: a 50ms deadline stops searches that would otherwise
// run far longer, and stops them promptly — the smoke contract the CI
// cancellation step asserts across the repo.
func TestExactCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := RandomSetCover(40, 80, 0.15, rng)
	lc := RandomLabelCover(4, 4, 5, 6, 4, rng)
	g := RandomCubicGraph(80, rng)
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"setcover", func(ctx context.Context) error { _, err := sc.ExactCtx(ctx, 0); return err }},
		{"labelcover", func(ctx context.Context) error { _, err := lc.ExactCtx(ctx, 0); return err }},
		{"vertexcover", func(ctx context.Context) error { _, err := g.ExactVertexCoverCtx(ctx, 0); return err }},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		err := tc.run(ctx)
		elapsed := time.Since(start)
		cancel()
		// A search that legitimately finishes inside 50ms is fine; one that
		// does not must report the deadline within the polling interval.
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", tc.name, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%s: took %v to notice a 50ms deadline", tc.name, elapsed)
		}
	}
}
