package privacy

import (
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

	for _, par := range []int{1, 4} {
		res, err := mv.MinCostSafeSubsetOpts(costs, gamma, search.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Cost != bestCost {
			t.Fatalf("par %d: cost %v, want %v", par, res.Cost, bestCost)
		}
		got := res.Hidden.Sorted()
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
	counting := &CountingOracle{Inner: OracleFor(mv, 4)}
	res2, err := EngineMinCostWithOracle(mv.Attrs(), costs, counting, search.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Checked != counting.Calls() {
		t.Errorf("Checked = %d, oracle calls = %d", res2.Checked, counting.Calls())
	}
	if res2.Cost != res.Cost || res2.Found != res.Found {
		t.Errorf("oracle-backed engine disagrees: %+v vs %+v", res2, res)
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
	engineRes, err := EngineMinCostWithOracle(mv.Attrs(), costs,
		&CountingOracle{Inner: OracleFor(mv, 4)}, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hidden, cost, _, err := MinCostSafeSubsetWithOracle(mv.Attrs(), costs,
		&CountingOracle{Inner: OracleFor(mv, 4)}, 1e9)
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

// AllSafeVisibleSubsets and MinimalSafeHiddenSets keep their documented
// deterministic order under parallel execution.
func TestEnumerationDeterministicOrder(t *testing.T) {
	mv := fig1View()
	seq, err := mv.AllSafeVisibleSubsetsOpts(4, search.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := mv.AllSafeVisibleSubsetsOpts(4, search.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("safe-set counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !seq[i].Equal(par[i]) {
			t.Errorf("safe set %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
	mseq, err := mv.MinimalSafeHiddenSetsOpts(4, search.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mpar, err := mv.MinimalSafeHiddenSetsOpts(4, search.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(mseq) != len(mpar) {
		t.Fatalf("minimal-set counts differ: %d vs %d", len(mseq), len(mpar))
	}
	for i := range mseq {
		if !mseq[i].Equal(mpar[i]) {
			t.Errorf("minimal set %d differs: %v vs %v", i, mseq[i], mpar[i])
		}
	}
}
