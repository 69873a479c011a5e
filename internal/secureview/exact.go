package secureview

import (
	"context"
	"errors"
	"fmt"
	"math"

	"secureview/internal/relation"
)

// ErrNodeBudget is the typed sentinel wrapped (errors.Is-able) by the exact
// solvers when their search space or node budget is exhausted before the
// optimum is proven, mirroring worlds.ErrBudgetExhausted. Callers distinguish
// a legitimately-too-large instance from a solver defect with errors.Is; the
// differential harness's skip logic asserts exactly that.
var ErrNodeBudget = errors.New("secureview: node budget exhausted")

// ExactStats reports how an exact solver spent its budget: search-tree nodes
// for ExactSet and ExactCardBB, candidate masks for ExactCard.
type ExactStats struct {
	Nodes int
}

// ExactCard finds an optimal solution for the cardinality variant. It is
// ExactCardCtx without cancellation; see there for the budget contract.
func ExactCard(p *Problem, maxAttrs int) (Solution, error) {
	sol, _, err := ExactCardCtx(context.Background(), p, maxAttrs)
	return sol, err
}

// ExactCardCtx finds an optimal solution for the cardinality variant by
// enumerating all subsets of the instance's useful attributes (2^|A'|; the
// problem is NP-hard even restricted, Theorem 5); see UsefulAttributes for
// why nothing else can appear in an optimum.
//
// A useful-attribute count exceeding maxAttrs returns an error wrapping
// ErrNodeBudget. Cancellation is observed every few thousand masks; on
// expiry the call returns ctx.Err() together with the cheapest feasible
// solution seen so far, if any.
func ExactCardCtx(ctx context.Context, p *Problem, maxAttrs int) (Solution, ExactStats, error) {
	if err := p.Validate(Cardinality); err != nil {
		return Solution{}, ExactStats{}, err
	}
	attrs := p.UsefulAttributes(Cardinality)
	if len(attrs) > maxAttrs || len(attrs) > 26 {
		return Solution{}, ExactStats{}, fmt.Errorf("secureview: %d attributes too many for exact enumeration: %w", len(attrs), ErrNodeBudget)
	}
	bestCost := math.Inf(1)
	var best Solution
	found := false
	nodes := 0
	for mask := 0; mask < 1<<len(attrs); mask++ {
		nodes++
		if mask&4095 == 0 && ctx.Err() != nil {
			if found {
				return best, ExactStats{Nodes: nodes}, ctx.Err()
			}
			return Solution{}, ExactStats{Nodes: nodes}, ctx.Err()
		}
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
		c := p.Cost(sol)
		if c < bestCost {
			bestCost = c
			best = sol
			found = true
		}
	}
	if !found {
		return Solution{}, ExactStats{Nodes: nodes}, fmt.Errorf("secureview: no feasible solution")
	}
	return best, ExactStats{Nodes: nodes}, nil
}
