package search_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/search"
)

func randomView(k int, rng *rand.Rand) privacy.ModuleView {
	nIn := k / 2
	if nIn == 0 {
		nIn = 1
	}
	in := make([]string, nIn)
	for i := range in {
		in[i] = fmt.Sprintf("x%d", i)
	}
	out := make([]string, k-nIn)
	for i := range out {
		out[i] = fmt.Sprintf("y%d", i)
	}
	m := module.Random("m", relation.Bools(in...), relation.Bools(out...), rng)
	return privacy.NewModuleView(m)
}

// TestEngineMatchesNaiveOnRandomModules is the end-to-end property test the
// engine ships under: on seeded random ModuleViews the pruned parallel
// search returns exactly the cost of the naive 2^k loop, for uniform and
// skewed costs and several Γ. Run with -race to exercise the worker pool.
func TestEngineMatchesNaiveOnRandomModules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(7) // 2..8 attributes
		mv := randomView(k, rng)
		attrs := mv.Attrs()
		costs := make(privacy.Costs, len(attrs))
		for _, a := range attrs {
			costs[a] = float64(1 + rng.Intn(4))
		}
		if trial%3 == 0 {
			costs = privacy.Uniform(attrs...) // force plenty of cost ties
		}
		gamma := uint64(1 + rng.Intn(4))

		// Reference: the seed repo's naive loop over name sets.
		sp, err := search.NewSpace(attrs, costs.Of)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := sp.NaiveMinCost(func(v search.Mask) (bool, error) {
			return mv.IsSafe(sp.NameSet(v), gamma)
		})
		if err != nil {
			t.Fatal(err)
		}

		oracle := mv.Oracle(sp, gamma)
		for _, par := range []int{1, 4} {
			res, err := sp.MinCost(oracle, search.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found != naive.Found {
				t.Fatalf("trial %d par %d (k=%d Γ=%d): Found=%v, naive %v",
					trial, par, k, gamma, res.Found, naive.Found)
			}
			if res.Found && res.Cost != naive.Cost {
				t.Fatalf("trial %d par %d (k=%d Γ=%d): cost %v, naive %v (hidden %v)",
					trial, par, k, gamma, res.Cost, naive.Cost, sp.NameSet(res.Hidden))
			}
			if res.Found {
				safe, err := mv.IsSafe(sp.NameSet(sp.All()&^res.Hidden), gamma)
				if err != nil || !safe {
					t.Fatalf("trial %d: returned subset unsafe: %v err=%v", trial, sp.NameSet(res.Hidden), err)
				}
			}
			if res.Stats.Checked+res.Stats.Pruned != 1<<len(attrs) {
				t.Fatalf("trial %d: counters %d+%d don't cover 2^%d",
					trial, res.Stats.Checked, res.Stats.Pruned, len(attrs))
			}
		}

		// The minimal-hidden-set sweep behind set derivation must agree
		// with itself across parallelism too.
		if k <= 6 {
			m1, _, err := sp.MinimalSafeHidden(oracle, search.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			m4, _, err := sp.MinimalSafeHidden(oracle, search.Options{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(m1, m4) {
				t.Fatalf("trial %d: minimal sets differ: %v vs %v", trial, m1, m4)
			}
		}
	}
}
