package secureview

import (
	"context"
	"math"
	"sort"

	"secureview/internal/relation"
)

// ExactCardBB finds an optimal cardinality-variant solution: it validates
// p and runs ExactCardBBCtx without cancellation.
func ExactCardBB(p *Problem, maxNodes int) (Solution, error) {
	if err := p.Validate(Cardinality); err != nil {
		return Solution{}, err
	}
	sol, _, err := ExactCardBBCtx(context.Background(), p, maxNodes)
	return sol, err
}

// ExactCardBBCtx finds an optimal cardinality-variant solution (the
// problem is NP-hard, Theorem 5) by depth-first branch and bound over the
// useful attributes, seeded with the Greedy solution. p must pass
// p.Validate(Cardinality), as the solve registry's capability check
// ensures; on a problem Validate rejects, the result is unspecified.
//
// Branching: attributes are considered in decreasing "demand" order (how
// many private modules name them), ties by ascending cost, then name; at
// each node the attribute is either hidden (cost incurred) or discarded.
// A node is pruned when some unsatisfied module can no longer be satisfied
// from the attributes still open, or when its cost so far plus the largest
// cheapest completion among the unsatisfied modules reaches the
// incumbent's cost. A module's cheapest completion adds the cheapest open
// inputs and outputs one of its requirements still lacks; the largest one
// never overestimates the cost of completing them all.
//
// The search tree has 2^k leaves, k the useful-attribute count; when that
// exceeds maxNodes the call returns an error wrapping ErrNodeBudget before
// any search, with no incumbent. Otherwise the search runs to the end, or
// until ctx expires: cancellation is observed every 256 nodes and returns
// ctx.Err() with the best incumbent so far, always feasible since the
// greedy seed is.
func ExactCardBBCtx(ctx context.Context, p *Problem, maxNodes int) (Solution, ExactStats, error) {
	useful := relation.NewNameSet(p.UsefulAttributes(Cardinality)...)
	if err := checkLeaves("exact cardinality", math.Ldexp(1, len(useful)), maxNodes); err != nil {
		return Solution{}, ExactStats{}, err
	}
	var privates []ModuleSpec
	for _, m := range p.Modules {
		if !m.Public {
			privates = append(privates, m)
		}
	}
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

	// Greedy hides a cheapest requirement of every private module, so on
	// a valid problem the seed is feasible.
	best := Greedy(p, Cardinality)
	bestCost := p.Cost(best)

	// The completion bound runs at every node over every private module, so
	// it reads each attribute's state (hidden, discarded or still open)
	// from a slice, not from name sets.
	bb := newCardBound(p, privates)
	hidden := make(relation.NameSet)
	nodes := 0
	cancelled := false

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
			if c := p.Cost(sol); c < bestCost {
				bestCost = c
				best = sol
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
		if cancelled {
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
	if cancelled {
		return best, stats, ctx.Err()
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
