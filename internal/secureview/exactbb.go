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

	// The completion bound runs at every node over every private module, so
	// it reads each attribute's state (hidden, discarded or still open)
	// from a slice, not from name sets.
	bb := newCardBound(p, privates)
	hidden := make(relation.NameSet)
	nodes := 0
	var overBudget, cancelled bool

	// completionBound returns a lower bound on extra attribute cost needed
	// to satisfy all currently unsatisfied modules, or -1 if some module
	// can no longer be satisfied.
	completionBound := func() float64 {
		bound := 0.0
		for i := range bb.mods {
			m := &bb.mods[i]
			hi, ho := bb.hiddenCounts(m)
			if m.satisfied(hi, ho) {
				continue
			}
			cheapest := -1.0
			for _, r := range m.card {
				c, ok := bb.completionCost(m, r, hi, ho)
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
		id := bb.id[a]
		// Branch 1: hide a.
		hidden.Add(a)
		bb.state[id] = hiddenAttr
		rec(i+1, attrCost+p.Costs.Of(a))
		delete(hidden, a)
		if overBudget || cancelled {
			bb.state[id] = openAttr
			return
		}
		// Branch 2: discard a.
		bb.state[id] = discardedAttr
		rec(i+1, attrCost)
		bb.state[id] = openAttr
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

// Attribute states during the cardinality branch and bound.
const (
	openAttr = iota
	hiddenAttr
	discardedAttr
)

// cardBound is the cardinality branch and bound's view of the private
// modules for its completion bound: attributes as indexes into state and
// cost.
type cardBound struct {
	id    map[string]int
	state []uint8
	cost  []float64
	mods  []cardModule
}

// cardModule is one private module's interface as attribute indexes, in
// list order (repeats included, as ModuleSpec.Satisfied counts them) and
// again sorted by cost, and its requirement list.
type cardModule struct {
	in, out             []int
	inByCost, outByCost []int
	card                []CardReq
}

func newCardBound(p *Problem, privates []ModuleSpec) *cardBound {
	b := &cardBound{id: make(map[string]int)}
	ids := func(names []string) []int {
		out := make([]int, len(names))
		for i, a := range names {
			id, ok := b.id[a]
			if !ok {
				id = len(b.cost)
				b.id[a] = id
				b.cost = append(b.cost, p.Costs.Of(a))
			}
			out[i] = id
		}
		return out
	}
	byCost := func(ids []int) []int {
		out := append([]int(nil), ids...)
		sort.SliceStable(out, func(x, y int) bool { return b.cost[out[x]] < b.cost[out[y]] })
		return out
	}
	for _, m := range privates {
		cm := cardModule{in: ids(m.Inputs), out: ids(m.Outputs), card: m.CardList}
		cm.inByCost, cm.outByCost = byCost(cm.in), byCost(cm.out)
		b.mods = append(b.mods, cm)
	}
	b.state = make([]uint8, len(b.cost))
	return b
}

// hiddenCounts returns how many of the module's input and output entries
// are hidden.
func (b *cardBound) hiddenCounts(m *cardModule) (hi, ho int) {
	for _, a := range m.in {
		if b.state[a] == hiddenAttr {
			hi++
		}
	}
	for _, a := range m.out {
		if b.state[a] == hiddenAttr {
			ho++
		}
	}
	return hi, ho
}

// satisfied reports whether hi hidden inputs and ho hidden outputs meet
// one of the module's requirements.
func (m *cardModule) satisfied(hi, ho int) bool {
	for _, r := range m.card {
		if hi >= r.Alpha && ho >= r.Beta {
			return true
		}
	}
	return false
}

// completionCost returns the cheapest extra cost to satisfy requirement r
// of module m, which has hi inputs and ho outputs hidden, from its open
// attributes, or false if too few remain open. It adds the cheapest open
// inputs and then the cheapest open outputs in ascending cost order.
func (b *cardBound) completionCost(m *cardModule, r CardReq, hi, ho int) (float64, bool) {
	cost := 0.0
	for _, side := range [2]struct {
		need   int
		byCost []int
	}{{r.Alpha - hi, m.inByCost}, {r.Beta - ho, m.outByCost}} {
		for _, a := range side.byCost {
			if side.need <= 0 {
				break
			}
			if b.state[a] == openAttr {
				cost += b.cost[a]
				side.need--
			}
		}
		if side.need > 0 {
			return 0, false
		}
	}
	return cost, true
}
