package combopt

import (
	"fmt"
	"math/rand"
)

// LabelCover is an instance of the minimum label cover problem (as used by
// the hardness proofs of Theorems 6 and 10): a bipartite graph with left
// vertices 0..NU-1 and right vertices 0..NW-1, a label set {0..L-1}, and a
// non-empty relation per edge. A feasible solution assigns a label set to
// every vertex such that each edge (u,w) has some (l1,l2) in its relation
// with l1 assigned to u and l2 to w. The objective is the total number of
// assigned labels.
type LabelCover struct {
	NU, NW int
	L      int
	Edges  []LCEdge
	// Weights holds one non-negative weight per (vertex, label), indexed
	// like Assignment: rows 0..NU-1 are left vertices, NU..NU+NW-1 right
	// (nil = every label weighs 1).
	Weights [][]float64
}

// LCEdge is one edge with its admissible label pairs.
type LCEdge struct {
	U, W int
	Rel  [][2]int
}

// LabelWeight returns the weight of assigning label l to vertex v (the
// Assignment row index), 1 when Weights is nil.
func (lc LabelCover) LabelWeight(v, l int) float64 {
	if lc.Weights == nil {
		return 1
	}
	return lc.Weights[v][l]
}

// CostOf returns the assignment's total label weight.
func (lc LabelCover) CostOf(a Assignment) float64 {
	total := 0.0
	for v, labels := range a {
		for l, on := range labels {
			if on {
				total += lc.LabelWeight(v, l)
			}
		}
	}
	return total
}

// Validate checks ranges, non-emptiness of relations and — when weights are
// present — their shape and non-negativity.
func (lc LabelCover) Validate() error {
	if lc.Weights != nil {
		if len(lc.Weights) != lc.NU+lc.NW {
			return fmt.Errorf("combopt: %d weight rows for %d vertices", len(lc.Weights), lc.NU+lc.NW)
		}
		for v, row := range lc.Weights {
			if len(row) != lc.L {
				return fmt.Errorf("combopt: vertex %d has %d label weights, want %d", v, len(row), lc.L)
			}
			for l, w := range row {
				if w < 0 {
					return fmt.Errorf("combopt: label (%d,%d) has negative weight %g", v, l, w)
				}
			}
		}
	}
	for i, e := range lc.Edges {
		if e.U < 0 || e.U >= lc.NU || e.W < 0 || e.W >= lc.NW {
			return fmt.Errorf("combopt: edge %d endpoints out of range", i)
		}
		if len(e.Rel) == 0 {
			return fmt.Errorf("combopt: edge %d has empty relation", i)
		}
		for _, p := range e.Rel {
			if p[0] < 0 || p[0] >= lc.L || p[1] < 0 || p[1] >= lc.L {
				return fmt.Errorf("combopt: edge %d has label pair %v out of range", i, p)
			}
		}
	}
	return nil
}

// Assignment maps vertices to label sets; index 0..NU-1 are left vertices,
// NU..NU+NW-1 are right vertices.
type Assignment [][]bool

// Feasible reports whether the assignment covers every edge.
func (lc LabelCover) Feasible(a Assignment) bool {
	if len(a) != lc.NU+lc.NW {
		return false
	}
	for _, e := range lc.Edges {
		ok := false
		for _, p := range e.Rel {
			if a[e.U][p[0]] && a[lc.NU+e.W][p[1]] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func (lc LabelCover) emptyAssignment() Assignment {
	a := make(Assignment, lc.NU+lc.NW)
	for i := range a {
		a[i] = make([]bool, lc.L)
	}
	return a
}

func cloneAssignment(a Assignment) Assignment {
	c := make(Assignment, len(a))
	for i, row := range a {
		c[i] = append([]bool(nil), row...)
	}
	return c
}

// RandomLabelCover draws a random instance: a bipartite graph with every
// left vertex connected to degree random right vertices, and relations of
// the given size per edge.
func RandomLabelCover(nu, nw, labels, degree, relSize int, rng *rand.Rand) LabelCover {
	lc := LabelCover{NU: nu, NW: nw, L: labels}
	for u := 0; u < nu; u++ {
		perm := rng.Perm(nw)
		d := degree
		if d > nw {
			d = nw
		}
		for _, w := range perm[:d] {
			rel := make([][2]int, 0, relSize)
			seen := make(map[[2]int]bool)
			for len(rel) < relSize {
				p := [2]int{rng.Intn(labels), rng.Intn(labels)}
				if !seen[p] {
					seen[p] = true
					rel = append(rel, p)
				}
			}
			lc.Edges = append(lc.Edges, LCEdge{U: u, W: w, Rel: rel})
		}
	}
	return lc
}
