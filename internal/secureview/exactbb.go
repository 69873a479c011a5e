package secureview

import (
	"context"
	"math"
	"math/bits"
	"sort"
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
// useful attributes, seeded with the Greedy solution. It searches the
// problem compiled over those attributes (Problem.Compile), so a module's
// hidden inputs and outputs are two popcounts. p must pass
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
// never overestimates the cost of completing them all. A leaf is priced as
// Problem.Cost prices its solution.
//
// The search tree has 2^k leaves, k the useful-attribute count; when that
// exceeds maxNodes the call returns an error wrapping ErrNodeBudget before
// any search, with no incumbent. Otherwise the search runs to the end, or
// until ctx expires: cancellation is observed every 256 nodes and returns
// ctx.Err() with the best incumbent so far, always feasible since the
// greedy seed is.
func ExactCardBBCtx(ctx context.Context, p *Problem, maxNodes int) (Solution, ExactStats, error) {
	useful := p.UsefulAttributes(Cardinality)
	if err := checkLeaves("exact cardinality", math.Ldexp(1, len(useful)), maxNodes); err != nil {
		return Solution{}, ExactStats{}, err
	}
	c, err := p.Compile(Cardinality, useful)
	if err != nil {
		return Solution{}, ExactStats{}, err
	}
	s := newCardSearch(ctx, c, p.Costs.Of)
	// Greedy hides a cheapest requirement of every private module, so on a
	// valid problem the seed is feasible; it hides useful attributes only.
	seed := Greedy(p, Cardinality)
	for i, a := range useful {
		if seed.Hidden.Has(a) {
			s.best |= 1 << i
		}
	}
	s.bestCost = s.price(s.best)
	s.descend(0, 0)
	sol := c.solution([]uint64{s.best})
	stats := ExactStats{Nodes: s.nodes}
	if s.cancelled {
		return sol, stats, ctx.Err()
	}
	return sol, stats, nil
}

// cardSearch is the state of one ExactCardBBCtx run. Masks are over the
// compiled universe: bit i is the i-th useful attribute in name order.
type cardSearch struct {
	ctx  context.Context
	c    *Compiled
	cost []float64 // per attribute
	// order lists the attributes in branching order; inByCost and
	// outByCost list each private module's input and output bits by
	// ascending cost (stably, so name order breaks ties).
	order               []int
	inByCost, outByCost [][]int

	hidden, open uint64 // open: attributes not decided yet

	best      uint64
	bestCost  float64
	nodes     int
	cancelled bool
}

func newCardSearch(ctx context.Context, c *Compiled, cost func(string) float64) *cardSearch {
	k := len(c.attrs)
	s := &cardSearch{ctx: ctx, c: c, cost: make([]float64, k), order: make([]int, k), open: 1<<k - 1}
	for i, a := range c.attrs {
		s.cost[i] = cost(a)
		s.order[i] = i
	}
	byCost := func(m uint64) []int {
		var out []int
		for ; m != 0; m &= m - 1 {
			out = append(out, bits.TrailingZeros64(m))
		}
		sort.SliceStable(out, func(x, y int) bool { return s.cost[out[x]] < s.cost[out[y]] })
		return out
	}
	demand := make([]int, k)
	for _, m := range c.mods {
		for _, x := range [2]uint64{m.in, m.out} {
			for ; x != 0; x &= x - 1 {
				demand[bits.TrailingZeros64(x)]++
			}
		}
		s.inByCost = append(s.inByCost, byCost(m.in))
		s.outByCost = append(s.outByCost, byCost(m.out))
	}
	// Most demanded first, so impactful decisions happen early; ties by
	// ascending cost, then name.
	sort.Slice(s.order, func(x, y int) bool {
		i, j := s.order[x], s.order[y]
		if demand[i] != demand[j] {
			return demand[i] > demand[j]
		}
		if s.cost[i] != s.cost[j] {
			return s.cost[i] < s.cost[j]
		}
		return i < j
	})
	return s
}

// descend visits the node deciding s.order[i], with attrCost the hiding
// cost of the attributes hidden so far, summed in branching order.
func (s *cardSearch) descend(i int, attrCost float64) {
	s.nodes++
	if s.nodes&255 == 0 && s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	lb := s.bound()
	if lb < 0 || attrCost+lb >= s.bestCost {
		return
	}
	if i == len(s.order) {
		// No attribute is open, so the bound admits a leaf only when every
		// private module is satisfied.
		if c := s.price(s.hidden); c < s.bestCost {
			s.best, s.bestCost = s.hidden, c
		}
		return
	}
	a := s.order[i]
	bit := uint64(1) << a
	s.open &^= bit
	s.hidden |= bit
	s.descend(i+1, attrCost+s.cost[a])
	s.hidden &^= bit
	if !s.cancelled {
		s.descend(i+1, attrCost)
	}
	s.open |= bit
}

// bound returns a lower bound on the hiding cost still needed to satisfy
// every private module, the largest cheapest completion among the
// unsatisfied ones, or -1 when one can no longer be satisfied from the open
// attributes.
func (s *cardSearch) bound() float64 {
	bound := 0.0
	for j := range s.c.mods {
		m := &s.c.mods[j]
		if m.satisfied(s.hidden) {
			continue
		}
		hi, ho := bits.OnesCount64(s.hidden&m.in), bits.OnesCount64(s.hidden&m.out)
		cheapest := -1.0
		for _, r := range m.card {
			c, ok := s.complete(0, s.inByCost[j], r.Alpha-hi)
			if ok {
				c, ok = s.complete(c, s.outByCost[j], r.Beta-ho)
			}
			if ok && (cheapest < 0 || c < cheapest) {
				cheapest = c
			}
		}
		if cheapest < 0 {
			return -1
		}
		bound = max(bound, cheapest) // max over modules: admissible
	}
	return bound
}

// complete adds to cost the costs of the need cheapest open attributes of
// byCost, and reports false when fewer than need are open.
func (s *cardSearch) complete(cost float64, byCost []int, need int) (float64, bool) {
	for _, a := range byCost {
		if need <= 0 {
			break
		}
		if s.open&(1<<a) != 0 {
			cost += s.cost[a]
			need--
		}
	}
	return cost, need <= 0
}

// price prices hidden mask h as Problem.Cost prices its solution: hiding
// costs in name order, then the privatization costs of the public modules
// h touches, in problem order.
func (s *cardSearch) price(h uint64) float64 {
	total := 0.0
	for x := h; x != 0; x &= x - 1 {
		total += s.cost[bits.TrailingZeros64(x)]
	}
	for _, pm := range s.c.pubs {
		if pm.mask[0]&h != 0 {
			total += pm.cost
		}
	}
	return total
}
