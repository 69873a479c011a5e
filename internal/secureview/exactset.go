package secureview

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"secureview/internal/relation"
)

// ExactSet finds an optimal solution for the set-constraints variant. It is
// ExactSetCtx without cancellation; see there for the budget contract.
func ExactSet(p *Problem, maxNodes int) (Solution, error) {
	sol, _, err := ExactSetCtx(context.Background(), p, maxNodes)
	return sol, err
}

// ExactSetCtx finds an optimal solution for the set-constraints variant by
// depth-first branch and bound over per-module option choices (ℓmax^n
// worst case; the problem is NP-hard, Theorem 6). It searches the problem
// compiled over its useful attributes (Problem.Compile), so a node costs a
// few word operations per option.
//
// Modules are branched in order of fewest options, and each module's
// options in order of cost; a module that earlier choices already satisfy
// is not branched on. A node is pruned when its cost so far plus the
// largest cheapest marginal option among the modules it leaves unsatisfied
// exceeds the incumbent's cost; ties are explored, since the lex order may
// still prefer them. A public module is privatized, at its cost, once a
// hidden attribute touches its interface mask.
//
// Among optimal solutions it returns the least hidden set in (cost, lex)
// order, the order in which the engine solver scans: cost sums the hiding
// costs in descending attribute order, as search.Space does, then adds the
// privatization costs; lex is search.Space.LexLess over the sorted
// attribute names. Every option union a leaf reaches is therefore
// completed with the free attributes below its largest attribute: the
// zero-cost ones that touch no public module it would newly pay for.
//
// A search space (the product of the option counts) exceeding maxNodes
// returns an error wrapping ErrNodeBudget before any search. Cancellation
// is observed at the first solution, which the search reaches without
// backtracking, and every 256 nodes after it; on expiry the call returns
// ctx.Err() with the best solution so far, always feasible.
func ExactSetCtx(ctx context.Context, p *Problem, maxNodes int) (Solution, ExactStats, error) {
	if err := p.Validate(Set); err != nil {
		return Solution{}, ExactStats{}, err
	}
	space := 1.0
	for _, m := range p.Modules {
		if !m.Public {
			space *= float64(len(m.SetList))
		}
	}
	if space > float64(maxNodes) {
		return Solution{}, ExactStats{}, fmt.Errorf("secureview: exact set search space %g exceeds %d: %w", space, maxNodes, ErrNodeBudget)
	}
	c, err := p.Compile(Set, p.UsefulAttributes(Set))
	if err != nil {
		return Solution{}, ExactStats{}, err
	}
	s := newSetSearch(ctx, c, p.Costs.Of)
	s.descend(0, 0, 0)
	stats := ExactStats{Nodes: s.nodes}
	if !s.found {
		return Solution{}, stats, fmt.Errorf("secureview: no feasible solution")
	}
	sol := c.solution(s.best)
	if s.cancelled {
		return sol, stats, ctx.Err()
	}
	return sol, stats, nil
}

// tieSlack widens the pruning limit above the incumbent's cost: a bound
// summed in another order than a leaf's cost may round above it by a few
// ulps per attribute, and must not prune a tie, which the lex order may
// still decide.
const tieSlack = 1e-9

// setSearch is the state of one ExactSetCtx run. Masks are multi-word, w
// words each, over the compiled universe; bit i is the i-th useful
// attribute in name order, so mask order is name order.
type setSearch struct {
	ctx  context.Context
	w    int
	cost []float64  // per attribute
	mods [][]uint64 // private modules' options in search order, by cost
	zero []uint64   // the zero-cost attributes
	pubs []publicMask
	// attrPubs lists, per attribute, the public modules naming it; touched
	// marks those the current hidden mask privatizes, in the order touchLog
	// records for undo.
	attrPubs [][]int32
	touched  []bool
	touchLog []int32

	stack   []uint64 // the hidden mask at each branching depth
	scratch []uint64

	found     bool
	best      []uint64
	bestCost  float64
	limit     float64 // prune above this cost
	nodes     int
	cancelled bool
}

func newSetSearch(ctx context.Context, c *Compiled, cost func(string) float64) *setSearch {
	w := c.words
	s := &setSearch{
		ctx:      ctx,
		w:        w,
		cost:     make([]float64, len(c.attrs)),
		zero:     make([]uint64, w),
		pubs:     c.pubs,
		touched:  make([]bool, len(c.pubs)),
		stack:    make([]uint64, (len(c.wide)+1)*w),
		scratch:  make([]uint64, w),
		best:     make([]uint64, w),
		bestCost: math.Inf(1),
		limit:    math.Inf(1),
	}
	for i, a := range c.attrs {
		s.cost[i] = cost(a)
		if s.cost[i] == 0 {
			s.zero[i/64] |= 1 << (i % 64)
		}
	}
	if len(c.pubs) > 0 {
		s.attrPubs = make([][]int32, len(c.attrs))
		for j, pm := range c.pubs {
			for k, x := range pm.mask {
				for ; x != 0; x &= x - 1 {
					i := k*64 + bits.TrailingZeros64(x)
					s.attrPubs[i] = append(s.attrPubs[i], int32(j))
				}
			}
		}
	}

	// Options by cost (stably, so list order breaks ties), modules by
	// option count (stably, in problem order).
	for _, opts := range c.wide {
		n := len(opts) / w
		order := make([]int, n)
		costs := make([]float64, n)
		for o := range order {
			order[o] = o
			costs[o] = s.maskCost(opts[o*w : (o+1)*w])
		}
		sort.SliceStable(order, func(x, y int) bool { return costs[order[x]] < costs[order[y]] })
		sorted := make([]uint64, 0, len(opts))
		for _, o := range order {
			sorted = append(sorted, opts[o*w:(o+1)*w]...)
		}
		s.mods = append(s.mods, sorted)
	}
	sort.SliceStable(s.mods, func(x, y int) bool { return len(s.mods[x]) < len(s.mods[y]) })
	return s
}

// maskCost sums the costs of the mask's attributes in ascending order.
func (s *setSearch) maskCost(m []uint64) float64 {
	total := 0.0
	for k, x := range m {
		for ; x != 0; x &= x - 1 {
			total += s.cost[k*64+bits.TrailingZeros64(x)]
		}
	}
	return total
}

// satisfied reports whether hidden mask h contains one of the options.
func satisfied(opts, h []uint64) bool {
	w := len(h)
next:
	for o := 0; o < len(opts); o += w {
		for k, x := range h {
			if opts[o+k]&^x != 0 {
				continue next
			}
		}
		return true
	}
	return false
}

// descend visits the node whose hidden mask is stack level d, with module
// i next to decide and cost the running sum of the mask's hiding and
// privatization costs.
func (s *setSearch) descend(i, d int, cost float64) {
	s.nodes++
	if s.found && s.nodes&255 == 0 && s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	w := s.w
	h := s.stack[d*w : (d+1)*w]
	for i < len(s.mods) && satisfied(s.mods[i], h) {
		i++
	}
	if i == len(s.mods) {
		s.leaf(h)
		return
	}
	if s.found && s.prune(i, h, cost) {
		return
	}
	child := s.stack[(d+1)*w : (d+2)*w]
	opts := s.mods[i]
	for o := 0; o < len(opts); o += w {
		c := cost
		mark := len(s.touchLog)
		for k, x := range h {
			add := opts[o+k] &^ x
			child[k] = x | add
			for ; add != 0; add &= add - 1 {
				a := k*64 + bits.TrailingZeros64(add)
				c += s.cost[a]
				if s.attrPubs != nil {
					c += s.privatize(a)
				}
			}
		}
		if !s.found || c <= s.limit {
			s.descend(i+1, d+1, c)
		}
		for _, j := range s.touchLog[mark:] {
			s.touched[j] = false
		}
		s.touchLog = s.touchLog[:mark]
		if s.cancelled {
			return
		}
	}
}

// privatize marks the public modules attribute a newly touches and
// returns their privatization cost.
func (s *setSearch) privatize(a int) float64 {
	c := 0.0
	for _, j := range s.attrPubs[a] {
		if !s.touched[j] {
			s.touched[j] = true
			s.touchLog = append(s.touchLog, j)
			c += s.pubs[j].cost
		}
	}
	return c
}

// prune reports whether every leaf below the node (hidden mask h, module
// i next, cost so far cost) costs more than the incumbent.
func (s *setSearch) prune(i int, h []uint64, cost float64) bool {
	bound := 0.0
	for _, opts := range s.mods[i:] {
		cheapest := math.Inf(1)
		for o := 0; o < len(opts) && cheapest > 0; o += s.w {
			c := 0.0
			for k, x := range h {
				for add := opts[o+k] &^ x; add != 0; add &= add - 1 {
					c += s.cost[k*64+bits.TrailingZeros64(add)]
				}
			}
			cheapest = min(cheapest, c)
		}
		if bound = max(bound, cheapest); cost+bound > s.limit {
			return true
		}
	}
	return false
}

// leaf completes the option union h with its free attributes and keeps it
// if it beats the incumbent. It prices h as the engine does, not by the
// running sum the bounds use.
func (s *setSearch) leaf(h []uint64) {
	top := topBit(h)
	for k, x := range h {
		s.scratch[k] = x | s.zero[k]&below(k, top)
	}
	for j, pm := range s.pubs {
		if !s.touched[j] && pm.cost > 0 {
			for k, x := range pm.mask {
				s.scratch[k] &^= x
			}
		}
	}
	cost := s.engineCost(h)
	if s.found && (cost > s.bestCost || cost == s.bestCost && !lexLessWords(s.scratch, s.best)) {
		return
	}
	if !s.found && s.ctx.Err() != nil {
		s.cancelled = true
	}
	s.found = true
	s.bestCost = cost
	s.limit = cost + cost*tieSlack
	copy(s.best, s.scratch)
}

// engineCost prices hidden mask h as the engine does: hiding costs added
// from the largest attribute down, then the privatization costs of the
// public modules h touches, in problem order.
func (s *setSearch) engineCost(h []uint64) float64 {
	total := 0.0
	for k := len(h) - 1; k >= 0; k-- {
		for x := h[k]; x != 0; x &^= 1 << (63 - bits.LeadingZeros64(x)) {
			total += s.cost[k*64+63-bits.LeadingZeros64(x)]
		}
	}
	for j, pm := range s.pubs {
		if s.touched[j] {
			total += pm.cost
		}
	}
	return total
}

// topBit returns the largest attribute index in mask m, or -1 when m is
// empty.
func topBit(m []uint64) int {
	for k := len(m) - 1; k >= 0; k-- {
		if m[k] != 0 {
			return k*64 + 63 - bits.LeadingZeros64(m[k])
		}
	}
	return -1
}

// below returns word k of the mask of every attribute index below top.
func below(k, top int) uint64 {
	switch {
	case top <= k*64:
		return 0
	case top >= (k+1)*64:
		return ^uint64(0)
	}
	return 1<<(top-k*64) - 1
}

// lexLessWords reports whether multi-word mask a is a lexicographically
// smaller set than b as ascending index sequences: search.Space.LexLess on
// masks whose bit order is name order.
func lexLessWords(a, b []uint64) bool {
	for k := range a {
		d := a[k] ^ b[k]
		if d == 0 {
			continue
		}
		low := d & -d
		atOrBelow := low<<1 - 1
		if a[k]&low != 0 {
			// a holds the first differing index; b wins only as a prefix.
			return b[k]&^atOrBelow != 0 || !zeroAbove(b, k+1)
		}
		return a[k]&^atOrBelow == 0 && zeroAbove(a, k+1)
	}
	return false
}

// solution materializes hidden mask h as a Solution, privatizing every
// public module it touches.
func (c *Compiled) solution(h []uint64) Solution {
	sol := Solution{Hidden: make(relation.NameSet), Privatized: make(relation.NameSet)}
	for k, x := range h {
		for ; x != 0; x &= x - 1 {
			sol.Hidden.Add(c.attrs[k*64+bits.TrailingZeros64(x)])
		}
	}
	for _, pm := range c.pubs {
		for k, x := range pm.mask {
			if x&h[k] != 0 {
				sol.Privatized.Add(pm.name)
				break
			}
		}
	}
	return sol
}
