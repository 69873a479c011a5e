package privacy

import (
	"sync/atomic"
	"testing"

	"secureview/internal/relation"
	"secureview/internal/search"
)

// TestMinCostTieBreakLexSmallest pins the satellite contract: among
// equal-cost optima the engine returns the hidden set that is
// lexicographically smallest as a sorted name sequence, at every
// parallelism level.
func TestMinCostTieBreakLexSmallest(t *testing.T) {
	mv := fig1View()
	costs := Uniform(mv.Attrs()...)
	const gamma = 4

	// Reference: enumerate every subset, collect the safe optima, pick the
	// lexicographically smallest by sorted-name-sequence comparison.
	attrs := mv.Attrs()
	all := relation.NewNameSet(attrs...)
	bestCost := -1.0
	var optima [][]string
	for mask := 0; mask < 1<<len(attrs); mask++ {
		hidden := make(relation.NameSet)
		cost := 0.0
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				hidden.Add(a)
				cost += costs.Of(a)
			}
		}
		safe, err := mv.IsSafe(all.Minus(hidden), gamma)
		if err != nil {
			t.Fatal(err)
		}
		if !safe {
			continue
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			optima = optima[:0]
		}
		if cost == bestCost {
			optima = append(optima, hidden.Sorted())
		}
	}
	if len(optima) < 2 {
		t.Fatalf("test instance has %d optima; need ties to exercise the tie-break", len(optima))
	}
	want := optima[0]
	for _, o := range optima[1:] {
		if lexLessNames(o, want) {
			want = o
		}
	}

	sp, err := search.NewSpace(attrs, costs.Of)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := sp.MinCost(mv.Oracle(sp, gamma), search.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Cost != bestCost {
			t.Fatalf("par %d: cost %v, want %v", par, res.Cost, bestCost)
		}
		got := sp.NameSet(res.Hidden).Sorted()
		if !equalNames(got, want) {
			t.Errorf("par %d: hidden %v, want lex-smallest optimum %v (all optima: %v)",
				par, got, want, optima)
		}
	}
}

func lexLessNames(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSearchResultCounters pins the satellite contract on Checked: it counts
// safety tests actually performed, Pruned the subsets decided without one,
// and together they cover the whole 2^k space.
func TestSearchResultCounters(t *testing.T) {
	mv := fig1View()
	costs := Uniform(mv.Attrs()...)
	k := len(mv.Attrs())

	res, err := mv.MinCostSafeSubset(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked+res.Pruned != 1<<k {
		t.Errorf("Checked %d + Pruned %d != 2^%d", res.Checked, res.Pruned, k)
	}
	if res.Checked == 1<<k {
		t.Error("engine performed a safety test for every subset; pruning is dead")
	}

	// Checked must equal actual oracle invocations: route the same search
	// through a counted oracle.
	sp, err := search.NewSpace(mv.Attrs(), costs.Of)
	if err != nil {
		t.Fatal(err)
	}
	inner := mv.Oracle(sp, 4)
	var calls atomic.Int64
	res2, err := sp.MinCost(func(visible search.Mask) (bool, error) {
		calls.Add(1)
		return inner(visible)
	}, search.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Checked != int(calls.Load()) {
		t.Errorf("Checked = %d, oracle calls = %d", res2.Stats.Checked, calls.Load())
	}
	if res2.Cost != res.Cost || res2.Found != res.Found {
		t.Errorf("counted engine disagrees: %+v vs %+v", res2, res)
	}
}

// TestUnsatisfiableKeepsCounters: even when nothing is safe the counters
// must cover the space.
func TestUnsatisfiableCounters(t *testing.T) {
	mv := fig1View()
	res, err := mv.MinCostSafeSubset(Uniform(mv.Attrs()...), 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("impossible Γ reported satisfiable")
	}
	if res.Checked+res.Pruned != 1<<len(mv.Attrs()) {
		t.Errorf("Checked %d + Pruned %d != %d", res.Checked, res.Pruned, 1<<len(mv.Attrs()))
	}
}

// The engine and the assumption-free oracle scan must agree on monotone
// (real-module) oracles.
func TestEngineAgreesWithOracleScan(t *testing.T) {
	mv := fig1View()
	costs := Uniform(mv.Attrs()...)
	engineRes, err := mv.MinCostSafeSubset(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	hidden, cost, _, err := MinCostSafeSubsetWithOracle(mv.Attrs(), costs,
		&CountingOracle{Inner: lemma4Oracle(mv, 4)}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if hidden == nil != !engineRes.Found {
		t.Fatalf("found mismatch: scan %v, engine %v", hidden, engineRes.Found)
	}
	if engineRes.Found && cost != engineRes.Cost {
		t.Errorf("cost mismatch: scan %v, engine %v", cost, engineRes.Cost)
	}
}
