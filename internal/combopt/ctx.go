package combopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBudget is the typed sentinel for exhausted node budgets, mirroring
// secureview.ErrNodeBudget: callers distinguish "the search ran out of
// budget" (retry bigger, switch solver, or report partiality) from a broken
// instance. Every budgeted Ctx solver in this package wraps it.
var ErrBudget = errors.New("combopt: node budget exhausted")

// budgetErr builds the wrapped budget error for one solver.
func budgetErr(what string, maxNodes int) error {
	return fmt.Errorf("combopt: %s exceeded %d nodes: %w", what, maxNodes, ErrBudget)
}

// GreedyCtx is the weighted greedy set-cover approximation: repeatedly pick
// the set maximizing newly-covered-elements per unit weight (ties on the
// smaller index). By Chvátal's dual-fitting analysis its cost is at most
// H(d) times the set-cover LP optimum, d being the largest set size. The
// context is observed once per chosen set; on expiry the partial cover built
// so far is discarded and ctx.Err() returned.
func (sc SetCover) GreedyCtx(ctx context.Context) ([]int, error) {
	covered := make([]bool, sc.N)
	remaining := sc.N
	var chosen []int
	used := make([]bool, len(sc.Sets))
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best, bestGain := -1, 0
		bestWeight := 0.0
		for i, s := range sc.Sets {
			if used[i] {
				continue
			}
			gain := 0
			for _, e := range s {
				if !covered[e] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			// Maximize gain/weight without dividing (handles zero weights):
			// i beats best iff gain_i·w_best > gain_best·w_i.
			w := sc.Weight(i)
			if best == -1 || float64(gain)*bestWeight > float64(bestGain)*w {
				best, bestGain, bestWeight = i, gain, w
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("combopt: universe not coverable")
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, e := range sc.Sets[best] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	sort.Ints(chosen)
	return chosen, nil
}

// ExactCtx finds a minimum-weight cover by branch and bound over elements
// (branching on the first uncovered element, trying each set containing it),
// seeded with the weighted greedy incumbent. Each branch node counts against
// maxNodes (<= 0 means unbounded); exhaustion returns an error wrapping
// ErrBudget, and the context is observed every few hundred nodes, returning
// ctx.Err() on expiry.
func (sc SetCover) ExactCtx(ctx context.Context, maxNodes int) ([]int, error) {
	greedy, err := sc.GreedyCtx(ctx)
	if err != nil {
		return nil, err
	}
	memberships := make([][]int, sc.N)
	cheapest := make([]float64, sc.N) // cheapest set weight covering e
	for i, s := range sc.Sets {
		for _, e := range s {
			if memberships[e] == nil || sc.Weight(i) < cheapest[e] {
				cheapest[e] = sc.Weight(i)
			}
			memberships[e] = append(memberships[e], i)
		}
	}
	best := append([]int(nil), greedy...)
	bestCost := sc.CostOf(greedy)

	covered := make([]int, sc.N) // coverage multiplicity
	remaining := sc.N
	nodes := 0
	var current []int
	cost := 0.0
	var stop error
	var rec func()
	rec = func() {
		if stop != nil {
			return
		}
		nodes++
		if maxNodes > 0 && nodes > maxNodes {
			stop = budgetErr("set-cover search", maxNodes)
			return
		}
		if nodes&255 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return
			}
		}
		if remaining == 0 {
			if cost < bestCost {
				bestCost = cost
				best = append(best[:0:0], current...)
			}
			return
		}
		// First uncovered element; its cheapest covering set is an
		// admissible completion bound.
		e := 0
		for covered[e] > 0 {
			e++
		}
		if cost+cheapest[e] >= bestCost {
			return
		}
		for _, i := range memberships[e] {
			current = append(current, i)
			cost += sc.Weight(i)
			for _, x := range sc.Sets[i] {
				if covered[x] == 0 {
					remaining--
				}
				covered[x]++
			}
			rec()
			for _, x := range sc.Sets[i] {
				covered[x]--
				if covered[x] == 0 {
					remaining++
				}
			}
			cost -= sc.Weight(i)
			current = current[:len(current)-1]
		}
	}
	rec()
	if stop != nil {
		return nil, stop
	}
	sort.Ints(best)
	return best, nil
}

// GreedyAssignmentCtx builds a feasible assignment: for each edge in order
// it chooses the admissible pair adding the least new label weight (ties
// on the first pair listed). Its cost is at most the sum over edges of each
// edge's cheapest pair weight — the certificate the forward label-cover
// reduction builds on. The context is observed once per edge batch; on
// expiry ctx.Err() is returned and the partial assignment discarded.
func (lc LabelCover) GreedyAssignmentCtx(ctx context.Context) (Assignment, error) {
	a := lc.emptyAssignment()
	for i, e := range lc.Edges {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		bestPair := e.Rel[0]
		bestNew := math.Inf(1)
		for _, p := range e.Rel {
			added := 0.0
			if !a[e.U][p[0]] {
				added += lc.LabelWeight(e.U, p[0])
			}
			if !a[lc.NU+e.W][p[1]] {
				added += lc.LabelWeight(lc.NU+e.W, p[1])
			}
			if added < bestNew {
				bestNew = added
				bestPair = p
			}
		}
		a[e.U][bestPair[0]] = true
		a[lc.NU+e.W][bestPair[1]] = true
	}
	return a, nil
}

// ExactCtx finds a minimum-weight assignment by branching over the pair
// chosen for each edge, pruning on the weighted incumbent, seeded with the
// weighted greedy. Each branch node counts against maxNodes (<= 0 means
// unbounded); exhaustion returns an error wrapping ErrBudget, and the
// context is observed every few hundred nodes.
func (lc LabelCover) ExactCtx(ctx context.Context, maxNodes int) (Assignment, error) {
	best, err := lc.GreedyAssignmentCtx(ctx)
	if err != nil {
		return nil, err
	}
	bestCost := lc.CostOf(best)
	a := lc.emptyAssignment()
	cost := 0.0
	nodes := 0
	var stop error
	var rec func(i int)
	rec = func(i int) {
		if stop != nil {
			return
		}
		nodes++
		if maxNodes > 0 && nodes > maxNodes {
			stop = budgetErr("label-cover search", maxNodes)
			return
		}
		if nodes&255 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return
			}
		}
		if cost >= bestCost {
			return
		}
		if i == len(lc.Edges) {
			bestCost = cost
			best = cloneAssignment(a)
			return
		}
		e := lc.Edges[i]
		for _, p := range e.Rel {
			// The U row (< NU) and W row (>= NU) never alias, so the two
			// deltas are independent.
			du := !a[e.U][p[0]]
			dw := !a[lc.NU+e.W][p[1]]
			var added float64
			if du {
				a[e.U][p[0]] = true
				added += lc.LabelWeight(e.U, p[0])
			}
			if dw {
				a[lc.NU+e.W][p[1]] = true
				added += lc.LabelWeight(lc.NU+e.W, p[1])
			}
			cost += added
			rec(i + 1)
			cost -= added
			if du {
				a[e.U][p[0]] = false
			}
			if dw {
				a[lc.NU+e.W][p[1]] = false
			}
		}
	}
	rec(0)
	if stop != nil {
		return nil, stop
	}
	return best, nil
}

// ExactVertexCoverCtx finds a minimum vertex cover by branch and bound,
// seeded with the matching cover: it branches on either endpoint of the
// first uncovered edge. Nodes count against maxNodes (<= 0 means
// unbounded; exhaustion wraps ErrBudget), and the context is observed every
// few hundred nodes.
func (g Graph) ExactVertexCoverCtx(ctx context.Context, maxNodes int) ([]int, error) {
	best := g.MatchingCover()
	in := make([]bool, g.N)
	nodes := 0
	var stop error
	var current []int
	var rec func()
	rec = func() {
		if stop != nil {
			return
		}
		nodes++
		if maxNodes > 0 && nodes > maxNodes {
			stop = budgetErr("vertex-cover search", maxNodes)
			return
		}
		if nodes&255 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return
			}
		}
		if len(current) >= len(best) {
			return
		}
		var edge [2]int
		found := false
		for _, e := range g.Edges {
			if !in[e[0]] && !in[e[1]] {
				edge = e
				found = true
				break
			}
		}
		if !found {
			best = append(best[:0:0], current...)
			return
		}
		for _, v := range edge {
			in[v] = true
			current = append(current, v)
			rec()
			current = current[:len(current)-1]
			in[v] = false
		}
	}
	rec()
	if stop != nil {
		return nil, stop
	}
	sort.Ints(best)
	return best, nil
}
