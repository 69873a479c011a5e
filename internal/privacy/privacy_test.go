package privacy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"secureview/internal/module"
	"secureview/internal/relation"
)

func fig1View() ModuleView { return NewModuleView(module.Fig1M1()) }

// lemma4Oracle is the Safe-View oracle of the interpreted Lemma 4 test.
func lemma4Oracle(mv ModuleView, gamma uint64) SafeViewOracle {
	return OracleFunc(func(visible relation.NameSet) (bool, error) {
		return mv.IsSafe(visible, gamma)
	})
}

// Example 3 of the paper, first claim: V = {a1,a3,a5} is safe for m1 and
// Γ = 4, and for x = (0,0) the OUT set is exactly
// {(0,0,1),(0,1,1),(1,0,0),(1,1,0)}.
func TestExample3SafeSubset(t *testing.T) {
	mv := fig1View()
	v := relation.NewNameSet("a1", "a3", "a5")
	safe, err := mv.IsSafe(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Fatal("V={a1,a3,a5} not safe for Γ=4")
	}
	out, err := mv.OutSet(v, relation.Tuple{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"[0 0 1]": true, "[0 1 1]": true, "[1 0 0]": true, "[1 1 0]": true}
	if len(out) != 4 {
		t.Fatalf("|OUT| = %d, want 4 (%v)", len(out), out)
	}
	for _, y := range out {
		k := relation.Tuple.Clone(y)
		s := "["
		for i, v := range k {
			if i > 0 {
				s += " "
			}
			s += string(rune('0' + v))
		}
		s += "]"
		if !want[s] {
			t.Errorf("unexpected OUT element %v", y)
		}
	}
	n, err := mv.OutSize(v, relation.Tuple{0, 0})
	if err != nil || n != 4 {
		t.Errorf("OutSize = %d (%v), want 4", n, err)
	}
}

// Example 3, second claim: hiding the two output attributes a4, a5 (visible
// {a1,a2,a3}) is safe for Γ = 4.
func TestExample3HideTwoOutputs(t *testing.T) {
	mv := fig1View()
	safe, err := mv.IsSafe(relation.NewNameSet("a1", "a2", "a3"), 4)
	if err != nil || !safe {
		t.Fatalf("V={a1,a2,a3} safe=%v err=%v, want true", safe, err)
	}
	// Hiding any two of the three outputs works.
	for _, pair := range [][2]string{{"a3", "a4"}, {"a3", "a5"}, {"a4", "a5"}} {
		vis := relation.NewNameSet("a1", "a2", "a3", "a4", "a5").
			Minus(relation.NewNameSet(pair[0], pair[1]))
		safe, err := mv.IsSafe(vis, 4)
		if err != nil || !safe {
			t.Errorf("hiding {%s,%s}: safe=%v err=%v, want true", pair[0], pair[1], safe, err)
		}
	}
}

// Example 3, third claim: V = {a3,a4,a5} (hiding only the inputs) is NOT
// safe for Γ = 4: every input has exactly three possible outputs.
func TestExample3InputsOnlyUnsafe(t *testing.T) {
	mv := fig1View()
	v := relation.NewNameSet("a3", "a4", "a5")
	safe, err := mv.IsSafe(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Fatal("V={a3,a4,a5} reported safe for Γ=4")
	}
	min, err := mv.MinOutSize(v)
	if err != nil || min != 3 {
		t.Fatalf("MinOutSize = %d (%v), want 3", min, err)
	}
	if safe, _ := mv.IsSafe(v, 3); !safe {
		t.Error("V={a3,a4,a5} should be safe for Γ=3")
	}
}

func TestOutSetSizeMatchesOutSize(t *testing.T) {
	mv := fig1View()
	views := []relation.NameSet{
		relation.NewNameSet("a1", "a3", "a5"),
		relation.NewNameSet("a1", "a2", "a3"),
		relation.NewNameSet("a3", "a4", "a5"),
		relation.NewNameSet(),
		relation.NewNameSet("a1", "a2", "a3", "a4", "a5"),
	}
	for _, v := range views {
		relation.EachTuple(relation.MustSchema(relation.Bools("a1", "a2")...), func(x relation.Tuple) bool {
			set, err := mv.OutSet(v, x)
			if err != nil {
				t.Fatal(err)
			}
			n, err := mv.OutSize(v, x)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(set)) != n {
				t.Errorf("V=%v x=%v: |OutSet|=%d OutSize=%d", v, x, len(set), n)
			}
			return true
		})
	}
}

func TestFullyVisibleGivesOutOne(t *testing.T) {
	mv := fig1View()
	all := relation.NewNameSet(mv.Attrs()...)
	min, err := mv.MinOutSize(all)
	if err != nil || min != 1 {
		t.Fatalf("fully visible MinOutSize = %d (%v), want 1", min, err)
	}
}

func TestFullyHiddenGivesRangeSize(t *testing.T) {
	mv := fig1View()
	min, err := mv.MinOutSize(relation.NewNameSet())
	if err != nil || min != 8 {
		t.Fatalf("fully hidden MinOutSize = %d (%v), want 2^3 = 8", min, err)
	}
}

func TestEmptyRelation(t *testing.T) {
	m := module.Fig1M1()
	mv := ModuleView{
		Rel:     relation.New(m.Schema()),
		Inputs:  m.InputNames(),
		Outputs: m.OutputNames(),
	}
	min, err := mv.MinOutSize(relation.NewNameSet())
	if err != nil || min != 0 {
		t.Fatalf("empty relation MinOutSize = %d (%v), want 0", min, err)
	}
}

func TestOutSizeUnknownInput(t *testing.T) {
	m := module.Fig1M1()
	mv := ModuleView{
		Rel:     relation.MustFromRows(m.Schema(), [][]relation.Value{{0, 0, 0, 1, 1}}),
		Inputs:  m.InputNames(),
		Outputs: m.OutputNames(),
	}
	if _, err := mv.OutSize(relation.NewNameSet(), relation.Tuple{1, 1}); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := mv.OutSet(relation.NewNameSet(), relation.Tuple{1, 1}); err == nil {
		t.Error("unknown input accepted by OutSet")
	}
}

func TestMinCostSafeSubsetFig1(t *testing.T) {
	mv := fig1View()
	costs := Uniform(mv.Attrs()...)
	res, err := mv.MinCostSafeSubset(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no safe subset found")
	}
	if res.Cost != 2 {
		t.Fatalf("min cost = %v, want 2 (hide two attributes)", res.Cost)
	}
	// The returned subset must actually be safe.
	safe, err := mv.IsSafe(res.Visible, 4)
	if err != nil || !safe {
		t.Errorf("returned subset unsafe: %v err=%v", res.Hidden, err)
	}
}

func TestMinCostRespectsWeights(t *testing.T) {
	mv := fig1View()
	// Make a4 and a5 expensive; the optimum must avoid hiding both.
	costs := Costs{"a1": 1, "a2": 1, "a3": 1, "a4": 10, "a5": 10}
	res, err := mv.MinCostSafeSubset(costs, 4)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	if res.Hidden.Has("a4") && res.Hidden.Has("a5") {
		t.Errorf("optimum hides both expensive attributes: %v (cost %v)", res.Hidden, res.Cost)
	}
	// {a2, a4} (cost 11) beats {a4, a5} (cost 20); best overall is {a2,a3}?
	// Verify optimality by exhaustive re-check.
	best := res.Cost
	attrs := mv.Attrs()
	for mask := 0; mask < 1<<len(attrs); mask++ {
		hidden := make(relation.NameSet)
		cost := 0.0
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				hidden.Add(a)
				cost += costs.Of(a)
			}
		}
		safe, _ := mv.IsSafe(relation.NewNameSet(attrs...).Minus(hidden), 4)
		if safe && cost < best {
			t.Fatalf("found cheaper safe subset %v cost %v < %v", hidden, cost, best)
		}
	}
}

func TestMinCostUnsatisfiableGamma(t *testing.T) {
	mv := fig1View()
	// Range size is 8; Γ = 9 is impossible even hiding everything.
	res, err := mv.MinCostSafeSubset(Uniform(mv.Attrs()...), 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("impossible Γ reported satisfiable")
	}
}

// Proposition 1 (monotonicity): if a hidden set is safe, every superset is.
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := module.Random("r", relation.Bools("x1", "x2"), relation.Bools("y1", "y2"), rng)
		mv := NewModuleView(m)
		attrs := mv.Attrs()
		all := relation.NewNameSet(attrs...)
		gamma := uint64(1 + rng.Intn(4))
		// Random hidden set.
		hidden := make(relation.NameSet)
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				hidden.Add(a)
			}
		}
		safe, err := mv.IsSafe(all.Minus(hidden), gamma)
		if err != nil {
			return false
		}
		if !safe {
			return true // nothing to check
		}
		// Add one more attribute.
		for _, a := range attrs {
			if !hidden.Has(a) {
				sup := hidden.Clone().Add(a)
				safe2, err := mv.IsSafe(all.Minus(sup), gamma)
				if err != nil || !safe2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: OutSize is always between 1 and the range size for total
// modules, and hiding everything yields exactly the number of distinct
// outputs times nothing — i.e. min equals distinct-output count times 1
// when outputs are visible... simplified: closed-form consistency between
// MinOutSize and per-input OutSize.
func TestQuickMinOutSizeIsMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := module.Random("r", relation.Bools("x1", "x2"), relation.Bools("y1", "y2"), rng)
		mv := NewModuleView(m)
		attrs := mv.Attrs()
		visible := make(relation.NameSet)
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				visible.Add(a)
			}
		}
		min, err := mv.MinOutSize(visible)
		if err != nil {
			return false
		}
		trueMin := uint64(1 << 62)
		ok := true
		relation.EachTuple(m.InputSchema(), func(x relation.Tuple) bool {
			n, err := mv.OutSize(visible, x)
			if err != nil {
				ok = false
				return false
			}
			if n < trueMin {
				trueMin = n
			}
			return true
		})
		return ok && min == trueMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOracleSearchMatchesBruteForce(t *testing.T) {
	mv := fig1View()
	costs := Uniform(mv.Attrs()...)
	oracle := &CountingOracle{Inner: lemma4Oracle(mv, 4)}
	hidden, cost, calls, err := MinCostSafeSubsetWithOracle(mv.Attrs(), costs, oracle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hidden == nil {
		t.Fatal("oracle search found nothing")
	}
	if cost != 2 {
		t.Fatalf("oracle search cost = %v, want 2", cost)
	}
	if calls <= 0 || calls != oracle.Calls() {
		t.Errorf("call accounting wrong: %d vs %d", calls, oracle.Calls())
	}
	// Budget below the optimum: nothing found, and the search exhausts the
	// candidate space within budget.
	oracle2 := &CountingOracle{Inner: lemma4Oracle(mv, 4)}
	h2, _, _, err := MinCostSafeSubsetWithOracle(mv.Attrs(), costs, oracle2, 1)
	if err != nil || h2 != nil {
		t.Errorf("budget-1 search returned %v err=%v, want nil", h2, err)
	}
}
