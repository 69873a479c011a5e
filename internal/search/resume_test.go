package search

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"secureview/internal/wire"
)

// weightedOracle is monotoneOracle with the weights exposed, so tests can
// build symmetry classes (attrs with equal weight AND equal cost are
// oracle-interchangeable for the threshold predicate).
func weightedOracle(s *Space, rng *rand.Rand) (Oracle, []float64) {
	weights := make([]float64, s.K())
	total := 0.0
	for i := range weights {
		weights[i] = float64(rng.Intn(4))
		total += weights[i]
	}
	threshold := rng.Float64() * total
	return func(v Mask) (bool, error) {
		sum := 0.0
		for x := v; x != 0; x &= x - 1 {
			sum += weights[bits.TrailingZeros32(uint32(x))]
		}
		return sum <= threshold, nil
	}, weights
}

// symClasses groups attribute indices by (oracle weight, cost) — the exact
// interchangeability condition Options.Symmetry requires for the threshold
// oracles.
func symClasses(s *Space, weights []float64, costs map[string]float64) [][]int {
	groups := map[[2]float64][]int{}
	for i, a := range s.Attrs() {
		key := [2]float64{weights[i], costs[a]}
		groups[key] = append(groups[key], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// TestResumeMatchesCold is the warm-start core property: after an arbitrary
// cost re-weighting, re-solving with the previous run's Frontier returns a
// byte-identical (cost, lex) optimum to a cold solve — on the streaming path
// and through the MinCost dispatcher, with and without symmetry classes —
// and the Checked+Pruned=2^k invariant survives seeding. (The sorted path
// is cold-only: the dispatcher sends every accepted resume to streaming.)
func TestResumeMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(10)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", k-i)
		}
		costs := randomCosts(attrs, rng)
		s := testSpace(t, attrs, costs)
		oracle, weights := weightedOracle(s, rng)

		var opts Options
		if trial%3 == 0 {
			opts.Symmetry = symClasses(s, weights, costs)
		}
		base, err := s.MinCost(oracle, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.Frontier == nil {
			t.Fatalf("trial %d: cold run exported no frontier", trial)
		}

		// Cost-only edit; the frontier must stay valid.
		edited := make(map[string]float64, k)
		for _, a := range attrs {
			edited[a] = float64(rng.Intn(4))
		}
		es := s.WithCosts(func(a string) float64 { return edited[a] })
		eopts := opts
		if opts.Symmetry != nil {
			eopts.Symmetry = symClasses(es, weights, edited)
		}
		cold, err := es.MinCost(oracle, eopts)
		if err != nil {
			t.Fatal(err)
		}

		warmOpts := eopts
		warmOpts.Resume = base.Frontier
		runs := []struct {
			name string
			run  func() (Result, error)
		}{
			{"dispatch", func() (Result, error) { return es.MinCost(oracle, warmOpts) }},
			{"streaming", func() (Result, error) { return es.minCostStreaming(oracle, warmOpts, new(atomic.Bool)) }},
		}
		for _, r := range runs {
			warm, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if warm.Found != cold.Found || warm.Hidden != cold.Hidden || warm.Cost != cold.Cost {
				t.Fatalf("trial %d %s: warm (found=%v hidden=%b cost=%g) != cold (found=%v hidden=%b cost=%g)",
					trial, r.name, warm.Found, warm.Hidden, warm.Cost, cold.Found, cold.Hidden, cold.Cost)
			}
			if !warm.Stats.Resumed {
				t.Fatalf("trial %d %s: resume not accepted", trial, r.name)
			}
			if warm.Stats.Checked+warm.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d %s: Checked %d + Pruned %d != %d",
					trial, r.name, warm.Stats.Checked, warm.Stats.Pruned, 1<<k)
			}
			if warm.Frontier == nil {
				t.Fatalf("trial %d %s: warm run exported no frontier", trial, r.name)
			}
		}
	}
}

// TestResumeIrrationalCosts is the ulp-drift regression: with real-valued
// costs, the streaming scan prices candidates from the subset-sum table
// while the naive approach would price the seeded bound with the bit-loop
// CostOf — two summation orders that can differ in the last ulp. Seeding
// the bound one ulp below the scan's own price for the optimum pruned the
// optimum itself, so a warm re-solve of an unchanged feasible instance
// reported "no feasible solution". Resume must reproduce the cold result
// exactly on such costs.
func TestResumeIrrationalCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(10)
		attrs := make([]string, k)
		costs := make(map[string]float64, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", i)
			costs[attrs[i]] = rng.Float64() * 3
		}
		s := testSpace(t, attrs, costs)
		oracle, _ := weightedOracle(s, rng)
		cold, err := s.MinCost(oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			f    func() (Result, error)
		}{
			{"dispatch", func() (Result, error) { return s.MinCost(oracle, Options{Resume: cold.Frontier}) }},
			{"streaming", func() (Result, error) {
				return s.minCostStreaming(oracle, Options{Resume: cold.Frontier}, new(atomic.Bool))
			}},
		} {
			warm, err := run.f()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, run.name, err)
			}
			if warm.Found != cold.Found || warm.Hidden != cold.Hidden || warm.Cost != cold.Cost {
				t.Fatalf("trial %d %s: warm (found=%v hidden=%b cost=%.20g) != cold (found=%v hidden=%b cost=%.20g)",
					trial, run.name, warm.Found, warm.Hidden, warm.Cost, cold.Found, cold.Hidden, cold.Cost)
			}
		}
	}
}

// TestResumeMemoReplaysVerdicts pins the memo's effect: re-solving the SAME
// instance warm answers nearly every candidate from the carried verdicts
// and seeded stores. The only candidates that may still reach the oracle
// are equal-cost ties the exporting run bulk-pruned past its best index
// without deciding, so warm oracle calls are bounded by the tie count.
func TestResumeMemoReplaysVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(8)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", i)
		}
		s := testSpace(t, attrs, randomCosts(attrs, rng))
		oracle, _ := weightedOracle(s, rng)
		cold, err := s.MinCost(oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.MinCost(oracle, Options{Resume: cold.Frontier})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Hidden != cold.Hidden || warm.Cost != cold.Cost || warm.Found != cold.Found {
			t.Fatalf("trial %d: warm diverged", trial)
		}
		ties := 0
		if cold.Found {
			for m := 0; m < 1<<k; m++ {
				if s.CostOf(Mask(m)) == cold.Cost {
					ties++
				}
			}
		}
		if warm.Stats.Checked > ties {
			t.Fatalf("trial %d: warm re-solve of the same instance asked the oracle %d times, more than the %d equal-cost ties (memo len %d, hits %d)",
				trial, warm.Stats.Checked, ties, cold.Frontier.MemoLen(), warm.Stats.MemoHits)
		}
	}
}

// TestResumeMismatchedUniverseIgnored: a frontier from a different universe
// must be conservatively ignored — cold behavior, Resumed=false.
func TestResumeMismatchedUniverseIgnored(t *testing.T) {
	a := testSpace(t, []string{"a", "b", "c"}, map[string]float64{"a": 1, "b": 2, "c": 3})
	b := testSpace(t, []string{"a", "b", "d"}, map[string]float64{"a": 1, "b": 2, "d": 3})
	oracle := func(v Mask) (bool, error) { return bits.OnesCount32(uint32(v)) <= 1, nil }
	base, err := a.MinCost(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.MinCost(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := b.MinCost(oracle, Options{Resume: base.Frontier})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Resumed || warm.Stats.ResumedSafe != 0 || warm.Stats.ResumedUnsafe != 0 || warm.Stats.MemoHits != 0 {
		t.Errorf("mismatched frontier was not ignored: %+v", warm.Stats)
	}
	if warm.Hidden != cold.Hidden || warm.Cost != cold.Cost {
		t.Errorf("mismatched resume changed the result")
	}
	// Same-universe sanity for the accessors.
	if sf, uf := base.Frontier.Counts(); sf+uf == 0 {
		t.Errorf("frontier stores empty after a completed run")
	}
	if base.Frontier.MemSize() <= 0 {
		t.Errorf("MemSize = %d", base.Frontier.MemSize())
	}
	if inc, found := base.Frontier.Incumbent(); found && inc != base.Hidden {
		t.Errorf("Incumbent %b != result %b", inc, base.Hidden)
	}
}

// TestWithCostsSharesUniverse: a WithCosts clone must behave exactly like a
// freshly built Space with the new costs (same optimum, same order), while
// sharing the universe slice.
func TestWithCostsSharesUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	attrs := []string{"a3", "a1", "a2", "a0"}
	first := randomCosts(attrs, rng)
	second := randomCosts(attrs, rng)
	s := testSpace(t, attrs, first)
	oracle, _ := weightedOracle(s, rng)

	clone := s.WithCosts(func(a string) float64 { return second[a] })
	fresh := testSpace(t, attrs, second)
	cr, err := clone.MinCost(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fresh.MinCost(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Hidden != fr.Hidden || cr.Cost != fr.Cost || cr.Found != fr.Found {
		t.Fatalf("WithCosts clone diverged: %+v vs %+v", cr, fr)
	}
	if got := clone.CostOf(clone.All()); got != fresh.CostOf(fresh.All()) {
		t.Fatalf("clone total cost %g != fresh %g", got, fresh.CostOf(fresh.All()))
	}
	// The original space is untouched.
	if got := s.CostOf(s.All()); got != testSum(first) {
		t.Fatalf("receiver costs mutated: %g", got)
	}
}

func testSum(m map[string]float64) float64 {
	tot := 0.0
	for _, v := range m {
		tot += v
	}
	return tot
}

// TestUnbuiltFrontierConcurrent: goroutines race on one freshly exported,
// still unbuilt frontier — resuming from it, encoding it, pricing it and
// counting it, each in a different order. The build must happen once and
// be invisible: every encoding is identical, every resumed optimum equals
// the cold optimum under the edited costs, MemSize reads the same before
// and after the build, and the built memo holds one verdict per check.
func TestUnbuiltFrontierConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		k := 4 + rng.Intn(9)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", i)
		}
		s := testSpace(t, attrs, randomCosts(attrs, rng))
		oracle, _ := weightedOracle(s, rng)
		base, err := s.MinCost(oracle, Options{Parallelism: 1 + trial%2})
		if err != nil {
			t.Fatal(err)
		}
		f := base.Frontier
		size := f.MemSize()
		edited := randomCosts(attrs, rng)
		es := s.WithCosts(func(a string) float64 { return edited[a] })
		cold, err := es.MinCost(oracle, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}

		const readers = 8
		type reading struct {
			enc          []byte
			warm         Result
			err          error
			size         int64
			safe, unsafe int
		}
		got := make([]reading, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := &got[g]
				ops := []func(){
					func() { r.warm, r.err = es.MinCost(oracle, Options{Parallelism: 2, Resume: f}) },
					func() { r.enc = f.AppendBinary(nil) },
					func() { r.size = f.MemSize() },
					func() { r.safe, r.unsafe = f.Counts() },
				}
				for i := range ops {
					ops[(g+i)%len(ops)]()
				}
			}(g)
		}
		wg.Wait()

		want := f.AppendBinary(nil)
		ws, wu := f.Counts()
		for g, r := range got {
			if r.err != nil {
				t.Fatalf("trial %d reader %d: %v", trial, g, r.err)
			}
			if !bytes.Equal(r.enc, want) {
				t.Fatalf("trial %d reader %d: encoding differs from the settled frontier's", trial, g)
			}
			if r.warm.Found != cold.Found || r.warm.Hidden != cold.Hidden || r.warm.Cost != cold.Cost || !r.warm.Stats.Resumed {
				t.Fatalf("trial %d reader %d: resumed (found=%v hidden=%b cost=%g resumed=%v) != cold (found=%v hidden=%b cost=%g)",
					trial, g, r.warm.Found, r.warm.Hidden, r.warm.Cost, r.warm.Stats.Resumed, cold.Found, cold.Hidden, cold.Cost)
			}
			if r.size != size || r.safe != ws || r.unsafe != wu {
				t.Fatalf("trial %d reader %d: MemSize %d Counts %d/%d, want %d and %d/%d",
					trial, g, r.size, r.safe, r.unsafe, size, ws, wu)
			}
		}
		if f.MemSize() != size || f.MemoLen() != base.Stats.Checked {
			t.Fatalf("trial %d: built frontier MemSize %d (unbuilt %d), MemoLen %d, Checked %d",
				trial, f.MemSize(), size, f.MemoLen(), base.Stats.Checked)
		}
		dec, err := DecodeFrontier(wire.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if dec.MemSize() != size {
			t.Fatalf("trial %d: decoded MemSize %d, unbuilt %d", trial, dec.MemSize(), size)
		}
	}
}
