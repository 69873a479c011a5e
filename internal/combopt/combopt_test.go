package combopt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// The tests below run the solvers unit-weighted and without a budget or
// deadline, so they cannot fail; these wrappers drop the error.

func greedyCover(sc SetCover) []int {
	c, _ := sc.GreedyCtx(context.Background())
	return c
}

func exactCover(sc SetCover) []int {
	c, _ := sc.ExactCtx(context.Background(), 0)
	return c
}

func exactVertexCover(g Graph) []int {
	c, _ := g.ExactVertexCoverCtx(context.Background(), 0)
	return c
}

func greedyAssignment(lc LabelCover) Assignment {
	a, _ := lc.GreedyAssignmentCtx(context.Background())
	return a
}

func exactAssignment(lc LabelCover) Assignment {
	a, _ := lc.ExactCtx(context.Background(), 0)
	return a
}

func TestSetCoverValidate(t *testing.T) {
	ok := SetCover{N: 3, Sets: [][]int{{0, 1}, {2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if err := (SetCover{N: 3, Sets: [][]int{{0, 5}}}).Validate(); err == nil {
		t.Error("out-of-range element accepted")
	}
	if err := (SetCover{N: 3, Sets: [][]int{{0, 1}}}).Validate(); err == nil {
		t.Error("uncoverable universe accepted")
	}
}

func TestSetCoverGreedyAndExact(t *testing.T) {
	// Classic: greedy may pick 3 sets where optimum is 2.
	sc := SetCover{
		N: 6,
		Sets: [][]int{
			{0, 1, 2, 3}, // greedy picks this first
			{0, 1, 4},
			{2, 3, 5},
			{4, 5},
		},
	}
	g := greedyCover(sc)
	if !sc.IsCover(g) {
		t.Fatal("greedy cover invalid")
	}
	e := exactCover(sc)
	if !sc.IsCover(e) {
		t.Fatal("exact cover invalid")
	}
	if len(e) != 2 {
		t.Fatalf("exact cover size = %d, want 2 ({0,1,4},{2,3,5})", len(e))
	}
	if len(g) < len(e) {
		t.Fatal("greedy beat exact")
	}
}

func TestSetCoverExactSingleton(t *testing.T) {
	sc := SetCover{N: 4, Sets: [][]int{{0}, {1}, {2}, {3}, {0, 1, 2, 3}}}
	if got := exactCover(sc); len(got) != 1 || got[0] != 4 {
		t.Fatalf("exact = %v, want [4]", got)
	}
}

func TestIsCoverRejectsBadIndices(t *testing.T) {
	sc := SetCover{N: 2, Sets: [][]int{{0, 1}}}
	if sc.IsCover([]int{5}) {
		t.Error("bad index accepted")
	}
}

// Property: exact <= greedy and both are valid covers on random instances.
func TestQuickSetCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := RandomSetCover(3+rng.Intn(8), 2+rng.Intn(6), 0.3, rng)
		if sc.Validate() != nil {
			return false
		}
		g := greedyCover(sc)
		e := exactCover(sc)
		return sc.IsCover(g) && sc.IsCover(e) && len(e) <= len(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGraphValidate(t *testing.T) {
	if err := (Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}).Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	if err := (Graph{N: 3, Edges: [][2]int{{0, 0}}}).Validate(); err == nil {
		t.Error("self loop accepted")
	}
	if err := (Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}}).Validate(); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := (Graph{N: 3, Edges: [][2]int{{0, 7}}}).Validate(); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestVertexCoverTriangle(t *testing.T) {
	g := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	e := exactVertexCover(g)
	if len(e) != 2 || !g.IsVertexCover(e) {
		t.Fatalf("triangle exact cover = %v, want size 2", e)
	}
	m := g.MatchingCover()
	if !g.IsVertexCover(m) || len(m) > 2*len(e) {
		t.Fatalf("matching cover %v violates 2-approximation", m)
	}
}

func TestVertexCoverStar(t *testing.T) {
	g := Graph{N: 5, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}}
	e := exactVertexCover(g)
	if len(e) != 1 || e[0] != 0 {
		t.Fatalf("star exact cover = %v, want [0]", e)
	}
}

// Property: exact is a cover, and matching cover is within factor 2.
func TestQuickVertexCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(4+rng.Intn(8), 3+rng.Intn(12), rng)
		if g.Validate() != nil {
			return false
		}
		e := exactVertexCover(g)
		m := g.MatchingCover()
		return g.IsVertexCover(e) && g.IsVertexCover(m) &&
			len(e) <= len(m) && len(m) <= 2*len(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomCubicGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomCubicGraph(10, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, d := range g.Degrees() {
		if d != 3 {
			t.Fatalf("vertex %d has degree %d, want 3", v, d)
		}
	}
	if g.MaxDegree() != 3 {
		t.Error("max degree wrong")
	}
	// Cubic vertex cover is at least m/3 (Theorem 7 proof uses K >= m'/3).
	e := exactVertexCover(g)
	if 3*len(e) < len(g.Edges) {
		t.Errorf("cover size %d below m/3 = %d", len(e), len(g.Edges)/3)
	}
}

func TestLabelCoverValidate(t *testing.T) {
	lc := LabelCover{NU: 1, NW: 1, L: 2, Edges: []LCEdge{{U: 0, W: 0, Rel: [][2]int{{0, 1}}}}}
	if err := lc.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := LabelCover{NU: 1, NW: 1, L: 2, Edges: []LCEdge{{U: 0, W: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty relation accepted")
	}
	oob := LabelCover{NU: 1, NW: 1, L: 2, Edges: []LCEdge{{U: 0, W: 0, Rel: [][2]int{{0, 5}}}}}
	if err := oob.Validate(); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestLabelCoverExactSharedLabel(t *testing.T) {
	// Two edges from u0 to w0 and w1. Choosing label 0 everywhere covers
	// both with cost 3; a bad greedy order could cost more.
	lc := LabelCover{
		NU: 1, NW: 2, L: 2,
		Edges: []LCEdge{
			{U: 0, W: 0, Rel: [][2]int{{1, 1}, {0, 0}}},
			{U: 0, W: 1, Rel: [][2]int{{0, 0}}},
		},
	}
	a := exactAssignment(lc)
	if !lc.Feasible(a) {
		t.Fatal("exact assignment infeasible")
	}
	if got := lc.CostOf(a); got != 3 {
		t.Fatalf("exact cost = %g, want 3", got)
	}
}

// Property: exact <= greedy, both feasible.
func TestQuickLabelCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lc := RandomLabelCover(1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(3), rng)
		if lc.Validate() != nil {
			return false
		}
		g := greedyAssignment(lc)
		e := exactAssignment(lc)
		return lc.Feasible(g) && lc.Feasible(e) && lc.CostOf(e) <= lc.CostOf(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
