package secureview

import (
	"context"
	"fmt"
	"sort"

	"secureview/internal/relation"
)

// ExactCardBB finds an optimal cardinality-variant solution. It is
// ExactCardBBCtx without cancellation; see there for the budget contract.
func ExactCardBB(p *Problem, maxNodes int) (Solution, error) {
	sol, _, err := ExactCardBBCtx(context.Background(), p, maxNodes)
	return sol, err
}

// ExactCardBBCtx finds an optimal cardinality-variant solution by
// depth-first branch and bound over attributes, which scales further than
// ExactCard's 2^|A| enumeration on instances whose optima hide few
// attributes.
//
// Branching: attributes are considered in decreasing "demand" order; at
// each node the attribute is either hidden (cost incurred) or discarded.
// Pruning: (a) cost-based against the incumbent, (b) feasibility-based —
// if discarding attributes makes some module's cheapest remaining option
// unreachable, the branch dies, (c) a simple lower bound adding, per
// unsatisfied module, the cheapest completion cost of its easiest option
// restricted to still-available attributes (admissible because option
// completions may overlap, which only lowers true cost... the bound uses
// the maximum single-module completion, which never overestimates).
//
// Exceeding maxNodes returns an error wrapping ErrNodeBudget; cancellation
// is observed every few hundred nodes and returns ctx.Err(). In both cases
// the best incumbent found so far is returned alongside the error (always
// feasible, since the greedy seed is).
func ExactCardBBCtx(ctx context.Context, p *Problem, maxNodes int) (Solution, ExactStats, error) {
	if err := p.Validate(Cardinality); err != nil {
		return Solution{}, ExactStats{}, err
	}
	var privates []ModuleSpec
	for _, m := range p.Modules {
		if !m.Public {
			privates = append(privates, m)
		}
	}
	useful := relation.NewNameSet(p.UsefulAttributes(Cardinality)...)
	attrs := useful.Sorted()
	// Order attributes by how many modules reference them (descending), so
	// impactful decisions happen early; ties by cost ascending.
	demand := make(map[string]int)
	for _, m := range privates {
		for _, a := range m.Inputs {
			if useful.Has(a) {
				demand[a]++
			}
		}
		for _, a := range m.Outputs {
			if useful.Has(a) {
				demand[a]++
			}
		}
	}
	sort.Slice(attrs, func(i, j int) bool {
		if demand[attrs[i]] != demand[attrs[j]] {
			return demand[attrs[i]] > demand[attrs[j]]
		}
		ci, cj := p.Costs.Of(attrs[i]), p.Costs.Of(attrs[j])
		if ci != cj {
			return ci < cj
		}
		return attrs[i] < attrs[j]
	})

	incumbent := Greedy(p, Cardinality)
	bestCost := p.Cost(incumbent)
	best := incumbent
	feasibleSeen := p.Feasible(incumbent, Cardinality)

	hidden := make(relation.NameSet)
	discarded := make(relation.NameSet)
	nodes := 0
	var overBudget, cancelled bool

	// completionBound returns a lower bound on extra attribute cost needed
	// to satisfy all currently unsatisfied modules, or -1 if some module
	// can no longer be satisfied.
	completionBound := func() float64 {
		bound := 0.0
		for _, m := range privates {
			if m.Satisfied(hidden, Cardinality) {
				continue
			}
			cheapest := -1.0
			for _, r := range m.CardList {
				c, ok := completionCost(p, m, r, hidden, discarded)
				if !ok {
					continue
				}
				if cheapest < 0 || c < cheapest {
					cheapest = c
				}
			}
			if cheapest < 0 {
				return -1
			}
			if cheapest > bound {
				bound = cheapest // max over modules: admissible
			}
		}
		return bound
	}

	var rec func(i int, attrCost float64)
	rec = func(i int, attrCost float64) {
		nodes++
		if nodes > maxNodes {
			overBudget = true
			return
		}
		if nodes&255 == 0 && ctx.Err() != nil {
			cancelled = true
			return
		}
		lb := completionBound()
		if lb < 0 || attrCost+lb >= bestCost {
			return
		}
		if i == len(attrs) {
			sol := p.Complete(hidden.Clone())
			if !p.Feasible(sol, Cardinality) {
				return
			}
			if c := p.Cost(sol); c < bestCost || !feasibleSeen {
				bestCost = c
				best = sol
				feasibleSeen = true
			}
			return
		}
		a := attrs[i]
		// Branch 1: hide a.
		hidden.Add(a)
		rec(i+1, attrCost+p.Costs.Of(a))
		delete(hidden, a)
		if overBudget || cancelled {
			return
		}
		// Branch 2: discard a.
		discarded.Add(a)
		rec(i+1, attrCost)
		delete(discarded, a)
	}
	rec(0, 0)
	stats := ExactStats{Nodes: nodes}
	switch {
	case cancelled:
		return best, stats, ctx.Err()
	case overBudget:
		return best, stats, fmt.Errorf("secureview: branch-and-bound exceeded %d nodes: %w", maxNodes, ErrNodeBudget)
	case !feasibleSeen:
		return Solution{}, stats, fmt.Errorf("secureview: no feasible solution")
	}
	return best, stats, nil
}

// completionCost returns the cheapest extra cost to satisfy requirement r
// of module m given already-hidden and permanently-discarded attributes,
// or false if impossible.
func completionCost(p *Problem, m ModuleSpec, r CardReq, hidden, discarded relation.NameSet) (float64, bool) {
	needIn := r.Alpha
	var availIn []float64
	for _, a := range m.Inputs {
		if hidden.Has(a) {
			needIn--
		} else if !discarded.Has(a) {
			availIn = append(availIn, p.Costs.Of(a))
		}
	}
	needOut := r.Beta
	var availOut []float64
	for _, a := range m.Outputs {
		if hidden.Has(a) {
			needOut--
		} else if !discarded.Has(a) {
			availOut = append(availOut, p.Costs.Of(a))
		}
	}
	if needIn < 0 {
		needIn = 0
	}
	if needOut < 0 {
		needOut = 0
	}
	if needIn > len(availIn) || needOut > len(availOut) {
		return 0, false
	}
	sort.Float64s(availIn)
	sort.Float64s(availOut)
	cost := 0.0
	for _, c := range availIn[:needIn] {
		cost += c
	}
	for _, c := range availOut[:needOut] {
		cost += c
	}
	return cost, true
}
