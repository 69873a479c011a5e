// Package combopt provides the combinatorial optimization problems that the
// paper's hardness reductions start from — set cover (Theorem 5, Theorem 9),
// vertex cover in cubic graphs (Theorem 7) and label cover (Theorem 6,
// Theorem 10) — with exact and approximation solvers.
//
// The exact solvers make the reduction experiments meaningful: each lemma in
// the paper's appendix asserts an exact cost correspondence between the
// source instance and the constructed Secure-View instance, and the
// experiments verify those equalities by solving both sides.
package combopt

import (
	"fmt"
	"math/rand"
	"sort"
)

// SetCover is an instance of minimum set cover: a universe {0..N-1} and a
// family of subsets. The goal is a minimum number of subsets whose union is
// the universe — or, when Weights is set, a minimum total weight.
type SetCover struct {
	N    int
	Sets [][]int
	// Weights holds one non-negative weight per set (nil = all 1).
	Weights []float64
}

// Weight returns set i's weight (1 when Weights is nil).
func (sc SetCover) Weight(i int) float64 {
	if sc.Weights == nil {
		return 1
	}
	return sc.Weights[i]
}

// CostOf returns the total weight of the chosen sets.
func (sc SetCover) CostOf(chosen []int) float64 {
	total := 0.0
	for _, i := range chosen {
		total += sc.Weight(i)
	}
	return total
}

// Validate checks element ranges, that a cover exists at all, and — when
// weights are present — that they are one-per-set and non-negative.
func (sc SetCover) Validate() error {
	if sc.Weights != nil && len(sc.Weights) != len(sc.Sets) {
		return fmt.Errorf("combopt: %d weights for %d sets", len(sc.Weights), len(sc.Sets))
	}
	for i, w := range sc.Weights {
		if w < 0 {
			return fmt.Errorf("combopt: set %d has negative weight %g", i, w)
		}
	}
	covered := make([]bool, sc.N)
	for i, s := range sc.Sets {
		for _, e := range s {
			if e < 0 || e >= sc.N {
				return fmt.Errorf("combopt: set %d contains %d outside universe [0,%d)", i, e, sc.N)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("combopt: element %d not coverable", e)
		}
	}
	return nil
}

// IsCover reports whether the chosen set indices cover the universe.
func (sc SetCover) IsCover(chosen []int) bool {
	covered := make([]bool, sc.N)
	n := 0
	for _, i := range chosen {
		if i < 0 || i >= len(sc.Sets) {
			return false
		}
		for _, e := range sc.Sets[i] {
			if !covered[e] {
				covered[e] = true
				n++
			}
		}
	}
	return n == sc.N
}

// RandomSetCover draws an instance with n elements and m sets, each element
// appearing in at least one set. Set sizes are geometric-ish around
// density·n.
func RandomSetCover(n, m int, density float64, rng *rand.Rand) SetCover {
	sets := make([][]int, m)
	for i := range sets {
		for e := 0; e < n; e++ {
			if rng.Float64() < density {
				sets[i] = append(sets[i], e)
			}
		}
	}
	// Guarantee coverability: sprinkle each element into a random set.
	for e := 0; e < n; e++ {
		i := rng.Intn(m)
		sets[i] = append(sets[i], e)
	}
	for i := range sets {
		sets[i] = dedupeInts(sets[i])
	}
	return SetCover{N: n, Sets: sets}
}

func dedupeInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
