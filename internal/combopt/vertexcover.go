package combopt

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int
}

// Validate checks vertex ranges and rejects self-loops and duplicates.
func (g Graph) Validate() error {
	seen := make(map[[2]int]bool, len(g.Edges))
	for i, e := range g.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			return fmt.Errorf("combopt: edge %d = (%d,%d) out of range", i, u, v)
		}
		if u == v {
			return fmt.Errorf("combopt: self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return fmt.Errorf("combopt: duplicate edge (%d,%d)", u, v)
		}
		seen[[2]int{u, v}] = true
	}
	return nil
}

// Degrees returns the degree of every vertex.
func (g Graph) Degrees() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e[0]]++
		d[e[1]]++
	}
	return d
}

// MaxDegree returns the maximum vertex degree.
func (g Graph) MaxDegree() int {
	max := 0
	for _, d := range g.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// IsVertexCover reports whether the vertex set touches every edge.
func (g Graph) IsVertexCover(vs []int) bool {
	in := make([]bool, g.N)
	for _, v := range vs {
		if v < 0 || v >= g.N {
			return false
		}
		in[v] = true
	}
	for _, e := range g.Edges {
		if !in[e[0]] && !in[e[1]] {
			return false
		}
	}
	return true
}

// MatchingCover is the classical 2-approximation: take both endpoints of a
// maximal matching.
func (g Graph) MatchingCover() []int {
	in := make([]bool, g.N)
	var cover []int
	for _, e := range g.Edges {
		if !in[e[0]] && !in[e[1]] {
			in[e[0]], in[e[1]] = true, true
			cover = append(cover, e[0], e[1])
		}
	}
	sort.Ints(cover)
	return cover
}

// RandomCubicGraph draws a random 3-regular simple graph on n vertices
// (n even, n >= 4) using the pairing model with rejection. Cubic graphs are
// the APX-hard vertex-cover family used by Theorem 7's reduction.
func RandomCubicGraph(n int, rng *rand.Rand) Graph {
	if n < 4 || n%2 != 0 {
		panic("combopt: cubic graph needs even n >= 4")
	}
	for attempt := 0; attempt < 10000; attempt++ {
		// 3n half-edges paired uniformly.
		stubs := make([]int, 0, 3*n)
		for v := 0; v < n; v++ {
			stubs = append(stubs, v, v, v)
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		edges := make([][2]int, 0, 3*n/2)
		seen := make(map[[2]int]bool)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				ok = false
				break
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
		if ok {
			return Graph{N: n, Edges: edges}
		}
	}
	panic("combopt: failed to sample a cubic graph")
}

// RandomGraph draws a simple graph with n vertices and (up to) m distinct
// random edges.
func RandomGraph(n, m int, rng *rand.Rand) Graph {
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for len(edges) < m && len(seen) < n*(n-1)/2 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return Graph{N: n, Edges: edges}
}
