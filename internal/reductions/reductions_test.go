package reductions

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"secureview/internal/combopt"
	"secureview/internal/secureview"
)

// setCoverOpt returns the least total weight of a cover of sc.
func setCoverOpt(t *testing.T, sc combopt.SetCover) float64 {
	t.Helper()
	cover, err := sc.ExactCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return sc.CostOf(cover)
}

// labelCoverOpt returns the least weight of a feasible assignment of lc.
func labelCoverOpt(t *testing.T, lc combopt.LabelCover) float64 {
	t.Helper()
	a, err := lc.ExactCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lc.CostOf(a)
}

// Theorem 5 reduction (B.4.2): the Secure-View optimum equals the set-cover
// optimum, and solutions translate back to covers.
func TestSetCoverCardinalityEquivalence(t *testing.T) {
	sc := combopt.SetCover{
		N: 6,
		Sets: [][]int{
			{0, 1, 2, 3},
			{0, 1, 4},
			{2, 3, 5},
			{4, 5},
		},
	}
	p := FromSetCoverCardinality(sc)
	if err := p.Validate(secureview.Cardinality); err != nil {
		t.Fatal(err)
	}
	sol, err := secureview.ExactCardBB(p, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), setCoverOpt(t, sc); got != want {
		t.Fatalf("Secure-View optimum %v != set-cover optimum %v", got, want)
	}
	cover := SetCoverFromSolution(sc, sol)
	if !sc.IsCover(cover) {
		t.Fatalf("extracted %v is not a cover", cover)
	}
}

// Property: the Theorem 5 equivalence holds on random set-cover instances,
// and the LP rounding produces feasible solutions within the proven bound.
func TestQuickSetCoverCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := combopt.RandomSetCover(3+rng.Intn(5), 2+rng.Intn(4), 0.35, rng)
		p := FromSetCoverCardinality(sc)
		sol, err := secureview.ExactCardBB(p, 1<<12)
		if err != nil {
			return false
		}
		if p.Cost(sol) != setCoverOpt(t, sc) {
			return false
		}
		rounded, lpVal, err := secureview.CardinalityLPRound(p,
			secureview.RoundingOptions{Trials: 3, Rng: rand.New(rand.NewSource(seed))})
		if err != nil || !p.Feasible(rounded, secureview.Cardinality) {
			return false
		}
		return lpVal <= p.Cost(sol)+1e-6 && p.Cost(rounded)+1e-6 >= lpVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Theorem 6 reduction (B.5.2, Lemma 5): Secure-View optimum equals the
// label-cover optimum.
func TestLabelCoverSetEquivalence(t *testing.T) {
	lc := combopt.LabelCover{
		NU: 2, NW: 2, L: 2,
		Edges: []combopt.LCEdge{
			{U: 0, W: 0, Rel: [][2]int{{0, 0}, {1, 1}}},
			{U: 0, W: 1, Rel: [][2]int{{0, 1}}},
			{U: 1, W: 0, Rel: [][2]int{{1, 0}, {0, 1}}},
		},
	}
	if err := lc.Validate(); err != nil {
		t.Fatal(err)
	}
	p := FromLabelCoverSet(lc)
	if err := p.Validate(secureview.Set); err != nil {
		t.Fatal(err)
	}
	sol, err := secureview.ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), labelCoverOpt(t, lc); got != want {
		t.Fatalf("Secure-View optimum %v != label-cover optimum %v", got, want)
	}
	a := LabelCoverFromSolution(lc, sol)
	if !lc.Feasible(a) {
		t.Fatal("extracted assignment infeasible")
	}
	// ℓmax rounding stays within its bound on this adversarial family.
	rounded, lpVal, err := secureview.SetLPRound(p)
	if err != nil || !p.Feasible(rounded, secureview.Set) {
		t.Fatalf("rounding failed: %v", err)
	}
	if p.Cost(rounded) > float64(p.LMax(secureview.Set))*lpVal+1e-6 {
		t.Errorf("rounding cost %v above ℓmax×LP %v", p.Cost(rounded), float64(p.LMax(secureview.Set))*lpVal)
	}
}

// Property: label-cover equivalence on random instances.
func TestQuickLabelCoverSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lc := combopt.RandomLabelCover(1+rng.Intn(2), 1+rng.Intn(2), 2, 1+rng.Intn(2), 1+rng.Intn(2), rng)
		p := FromLabelCoverSet(lc)
		sol, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			return false
		}
		return p.Cost(sol) == labelCoverOpt(t, lc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Theorem 7 reduction (B.6.2, Lemma 6): optimum equals |E| + K on cubic
// graphs, the instance has no data sharing, and greedy respects γ+1 = 2.
func TestVertexCoverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := combopt.RandomCubicGraph(4, rng) // K4: 6 edges, 16 useful attributes
	p := FromVertexCoverNoSharing(g)
	if err := p.Validate(secureview.Cardinality); err != nil {
		t.Fatal(err)
	}
	if p.DataSharing() != 1 {
		t.Fatalf("γ = %d, want 1", p.DataSharing())
	}
	sol, err := secureview.ExactCardBB(p, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	k, err := g.ExactVertexCoverCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), float64(len(g.Edges)+len(k)); got != want {
		t.Fatalf("optimum = %v, want |E|+K = %v", got, want)
	}
	greedy := secureview.Greedy(p, secureview.Cardinality)
	if !p.Feasible(greedy, secureview.Cardinality) {
		t.Fatal("greedy infeasible")
	}
	if p.Cost(greedy) > 2*p.Cost(sol)+1e-6 {
		t.Errorf("greedy %v above (γ+1)×OPT = %v", p.Cost(greedy), 2*p.Cost(sol))
	}
}

func TestVertexCoverSolutionExtraction(t *testing.T) {
	g := combopt.Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	p := FromVertexCoverNoSharing(g)
	sol, err := secureview.ExactCardBB(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Optimum: hide per-edge one item + y_1→z (vertex 1 covers both edges):
	// cost 3 = |E| + 1.
	if p.Cost(sol) != 3 {
		t.Fatalf("path optimum = %v, want 3", p.Cost(sol))
	}
	cover := VertexCoverFromSolution(g, sol)
	if !g.IsVertexCover(cover) {
		t.Fatalf("extracted %v not a vertex cover", cover)
	}
}

// Theorem 9 reduction (C.2): with public modules, the optimum equals the
// set-cover optimum even though γ = 1, and the privatized modules form a
// cover.
func TestSetCoverGeneralEquivalence(t *testing.T) {
	sc := combopt.SetCover{
		N: 4,
		Sets: [][]int{
			{0, 1},
			{1, 2},
			{2, 3},
			{0, 3},
			{0, 1, 2, 3},
		},
	}
	p := FromSetCoverGeneral(sc)
	if p.DataSharing() != 1 {
		t.Fatalf("γ = %d, want 1", p.DataSharing())
	}
	sol, err := secureview.ExactSet(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), setCoverOpt(t, sc); got != want {
		t.Fatalf("optimum = %v, want %v", got, want)
	}
	cover := PrivatizedSetsFromSolution(sc, sol)
	if !sc.IsCover(cover) {
		t.Fatalf("privatized sets %v do not cover", cover)
	}
	// The greedy per-module choice ignores privatization sharing and can
	// be worse; it must still be feasible.
	greedy := secureview.Greedy(p, secureview.Set)
	if !p.Feasible(greedy, secureview.Set) {
		t.Fatal("greedy infeasible")
	}
	if p.Cost(greedy) < p.Cost(sol)-1e-6 {
		t.Fatal("greedy beat exact")
	}
}

// Theorem 10 reduction (C.4, Lemma 8): the general-workflow cardinality
// optimum equals the label-cover optimum, with all cost carried by
// privatization.
func TestLabelCoverGeneralEquivalence(t *testing.T) {
	lc := combopt.LabelCover{
		NU: 2, NW: 1, L: 2,
		Edges: []combopt.LCEdge{
			{U: 0, W: 0, Rel: [][2]int{{0, 1}, {1, 0}}},
			{U: 1, W: 0, Rel: [][2]int{{1, 1}, {0, 0}}},
		},
	}
	p := FromLabelCoverGeneral(lc)
	if err := p.Validate(secureview.Cardinality); err != nil {
		t.Fatal(err)
	}
	// All attributes are free; only privatization costs.
	for _, c := range p.Costs {
		if c != 0 {
			t.Fatalf("unexpected attribute cost %v", c)
		}
	}
	sol, err := secureview.ExactCardBB(p, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cost(sol), labelCoverOpt(t, lc); got != want {
		t.Fatalf("optimum = %v, want label-cover optimum %v", got, want)
	}
	a := GeneralLabelAssignmentFromSolution(lc, sol)
	if !lc.Feasible(a) {
		t.Fatal("extracted assignment infeasible")
	}
}

// Example 5: the assembly gap between per-module greedy and the workflow
// optimum grows linearly with n.
func TestExample5Gap(t *testing.T) {
	for _, n := range []int{3, 6, 9} {
		p := Example5(n, 0.5)
		exact, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		greedy := secureview.Greedy(p, secureview.Set)
		if got := p.Cost(exact); got != 2.5 {
			t.Fatalf("n=%d: optimum = %v, want 2.5", n, got)
		}
		if got := p.Cost(greedy); got != float64(n+1) {
			t.Fatalf("n=%d: greedy = %v, want %d", n, got, n+1)
		}
		// Cardinality variant agrees.
		exactC, err := secureview.ExactCardBB(p, 1<<16)
		if err == nil && p.Cost(exactC) != 2.5 {
			t.Fatalf("n=%d: cardinality optimum = %v, want 2.5", n, p.Cost(exactC))
		}
	}
}
