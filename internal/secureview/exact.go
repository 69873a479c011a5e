package secureview

import (
	"errors"
	"fmt"
	"math"

	"secureview/internal/relation"
)

// ErrNodeBudget is the typed sentinel wrapped (errors.Is-able) by the exact
// solvers when a search would exceed its node budget, mirroring
// worlds.ErrBudgetExhausted. Both exact solvers refuse such a search up
// front, before visiting a node, so the error comes with no incumbent.
// Callers distinguish a legitimately-too-large instance from a solver
// defect with errors.Is; the differential harness's skip logic asserts
// exactly that.
var ErrNodeBudget = errors.New("secureview: node budget exhausted")

// ExactStats reports how an exact solver spent its budget: the search-tree
// nodes it visited.
type ExactStats struct {
	Nodes int
}

// checkLeaves returns an error wrapping ErrNodeBudget when a search tree
// with the given number of leaves exceeds maxNodes. The exact solvers call
// it before searching: a search they start runs to the end or to its
// deadline.
func checkLeaves(what string, leaves float64, maxNodes int) error {
	if leaves > float64(maxNodes) {
		return fmt.Errorf("secureview: %s search space %g exceeds %d: %w", what, leaves, maxNodes, ErrNodeBudget)
	}
	return nil
}

// BruteForceCard is the reference optimum of the cardinality variant, for
// tests, the differential harness and experiments that check ExactCardBB
// against an independent method: it enumerates all subsets of the useful
// attributes (2^|A'|; see UsefulAttributes for why nothing else can appear
// in an optimum), completes each with its privatization closure, and keeps
// the cheapest feasible one.
//
// A useful-attribute count exceeding maxAttrs (or 26) returns an error
// wrapping ErrNodeBudget.
func BruteForceCard(p *Problem, maxAttrs int) (Solution, error) {
	if err := p.Validate(Cardinality); err != nil {
		return Solution{}, err
	}
	attrs := p.UsefulAttributes(Cardinality)
	if len(attrs) > maxAttrs || len(attrs) > 26 {
		return Solution{}, fmt.Errorf("secureview: %d attributes too many for exact enumeration: %w", len(attrs), ErrNodeBudget)
	}
	bestCost := math.Inf(1)
	var best Solution
	found := false
	for mask := 0; mask < 1<<len(attrs); mask++ {
		hidden := make(relation.NameSet)
		attrCost := 0.0
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				hidden.Add(a)
				attrCost += p.Costs.Of(a)
			}
		}
		if attrCost >= bestCost {
			continue
		}
		sol := p.Complete(hidden)
		if !p.Feasible(sol, Cardinality) {
			continue
		}
		if c := p.Cost(sol); c < bestCost {
			bestCost = c
			best = sol
			found = true
		}
	}
	if !found {
		return Solution{}, fmt.Errorf("secureview: no feasible solution")
	}
	return best, nil
}
