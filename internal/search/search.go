// Package search is the shared subset-search engine behind the Secure-View
// optimizations: a bitset-mask enumerator over an ordered attribute universe
// with cost-ordered exploration, monotonicity pruning for the lattice
// enumerations (Proposition 1 of Davidson et al., PODS 2011), and a
// goroutine worker pool.
//
// The paper proves the standalone Secure-View problem needs 2^Ω(k) safety
// tests in the worst case (Theorem 3), so the engine cannot beat exponential
// asymptotics; what it does instead is (a) avoid allocating a name set per
// candidate — subsets are machine words until a solution is materialized,
// (b) explore candidates in ascending (cost, lex) order, so the first safe
// candidate is the optimum and bounds everything after it, (c) exploit that
// safety is monotone in the hidden set in the level sweep behind set
// derivation (MinimalSafeHidden) — a hidden mask with a safe subset is
// decided without a test — and (d) shard the mask space over workers with a
// shared best-index or best-cost bound, so multi-core hardware is actually
// used.
//
// MinCost keeps no domination state. Up to sortedMax attributes it is a
// pure (cost, lex) scan: per candidate one index-bound check and one oracle
// call. The order is finished only as far as the scan reads it: one
// counting pass puts every mask in a cost bucket, in lex order, and the
// scan sorts each bucket when it reaches it, so the time to the optimum
// does not pay for ordering the candidates after it. Costs are
// non-negative, so in that order a decided unsafe view dominates a later
// candidate only at equal cost, and a decided safe view only candidates
// the index bound already stops. Above sortedMax a
// cost-bound scan walks masks in ascending numeric order. There a hidden
// subset of a tested-unsafe set is visited before that set, and a hidden
// superset of a tested-safe set costs at least the bound that set
// established, so Proposition 1 stores could spare at most the equal-cost
// ties that zero-cost attributes make. Both scans test a surviving candidate
// with exactly one call to the per-mask oracle.
//
// Oracles passed to the engine MUST be monotone: if a visible set is safe,
// every subset of it is safe (equivalently, supersets of safe hidden sets
// are safe). This is Proposition 1 for standalone module privacy and holds
// for workflow privacy as well; it does NOT hold for adversarial oracles
// such as privacy.NewAdversaryOracle, which is why the Theorem 3 experiment
// keeps its own assumption-free loop.
package search

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"secureview/internal/relation"
)

// MaxAttrs is the largest universe the engine accepts (mask width).
const MaxAttrs = 24

// Mask is a subset of the universe: bit i is attribute i of the Space.
type Mask uint32

// Space fixes a search universe: an ordered attribute list with per-attribute
// hiding costs. Bit i of every Mask refers to Attrs()[i].
type Space struct {
	attrs []string
	costs []float64
	// permBit[i] is the bit attribute i occupies after sorting attributes by
	// name; permuted masks make the lexicographic tie-break O(1), and
	// MinCost's lex-order walk runs over them.
	permBit []Mask
}

// NewSpace builds a Space over the attributes with costs from cost (nil means
// all-zero costs). Attributes must be distinct and at most MaxAttrs many.
func NewSpace(attrs []string, cost func(string) float64) (*Space, error) {
	k := len(attrs)
	if k > MaxAttrs {
		return nil, fmt.Errorf("search: %d attributes exceed the %d-bit mask universe", k, MaxAttrs)
	}
	seen := make(map[string]struct{}, k)
	for _, a := range attrs {
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("search: duplicate attribute %q", a)
		}
		seen[a] = struct{}{}
	}
	s := &Space{
		attrs:   append([]string(nil), attrs...),
		costs:   make([]float64, k),
		permBit: make([]Mask, k),
	}
	if cost != nil {
		for i, a := range attrs {
			s.costs[i] = cost(a)
		}
	}
	// Rank attributes by name; attribute i gets bit rank(i) in permuted masks.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return s.attrs[order[x]] < s.attrs[order[y]] })
	for rank, i := range order {
		s.permBit[i] = 1 << rank
	}
	return s, nil
}

// K returns the universe size.
func (s *Space) K() int { return len(s.attrs) }

// Attrs returns the ordered attribute universe (do not mutate).
func (s *Space) Attrs() []string { return s.attrs }

// All returns the full-universe mask.
func (s *Space) All() Mask { return Mask(1)<<len(s.attrs) - 1 }

// CostOf returns the total cost of the masked attributes.
func (s *Space) CostOf(m Mask) float64 {
	total := 0.0
	for x := m; x != 0; x &= x - 1 {
		total += s.costs[bits.TrailingZeros32(uint32(x))]
	}
	return total
}

// NameSet materializes a mask as a relation.NameSet.
func (s *Space) NameSet(m Mask) relation.NameSet {
	out := make(relation.NameSet, bits.OnesCount32(uint32(m)))
	for x := m; x != 0; x &= x - 1 {
		out.Add(s.attrs[bits.TrailingZeros32(uint32(x))])
	}
	return out
}

// Names returns the masked attributes in universe order.
func (s *Space) Names(m Mask) []string {
	out := make([]string, 0, bits.OnesCount32(uint32(m)))
	for x := m; x != 0; x &= x - 1 {
		out = append(out, s.attrs[bits.TrailingZeros32(uint32(x))])
	}
	return out
}

// MaskOf returns the mask of the universe attributes present in set; names
// outside the universe are ignored.
func (s *Space) MaskOf(set relation.NameSet) Mask {
	var m Mask
	for i, a := range s.attrs {
		if set.Has(a) {
			m |= 1 << i
		}
	}
	return m
}

// perm returns the mask with bits permuted into name-sorted order.
func (s *Space) perm(m Mask) Mask {
	var p Mask
	for x := m; x != 0; x &= x - 1 {
		p |= s.permBit[bits.TrailingZeros32(uint32(x))]
	}
	return p
}

// LexLess reports whether mask a denotes a lexicographically smaller set than
// mask b, comparing the two sets as ascending name sequences (so {a2} < {a2,
// a3} < {a3}). It is the deterministic tie-break among equal-cost optima.
func (s *Space) LexLess(a, b Mask) bool {
	return lexLess(s.perm(a), s.perm(b))
}

// lexLess compares two name-sorted (permuted) masks as ascending element
// sequences. At the first rank where membership differs, the mask holding
// that rank is smaller — unless the other mask has no higher rank at all, in
// which case it is a proper prefix and wins.
func lexLess(x, y Mask) bool {
	if x == y {
		return false
	}
	d := x ^ y
	b := d & -d // lowest differing rank
	atOrBelow := b<<1 - 1
	if x&b != 0 {
		// x owns the first differing rank; y wins only as a proper prefix.
		return y&^atOrBelow != 0
	}
	return x&^atOrBelow == 0
}

// Oracle answers whether a VISIBLE mask is safe. Implementations must be
// monotone (see the package comment) and safe for concurrent use.
type Oracle func(visible Mask) (bool, error)

// Options tunes an engine run.
type Options struct {
	// Parallelism is the worker-pool size. Zero or negative uses the package
	// default: runtime.GOMAXPROCS(0), overridable via SetDefaultParallelism.
	Parallelism int
}

var defaultParallelism atomic.Int64

// SetDefaultParallelism overrides the worker count used when Options leaves
// Parallelism unset; n <= 0 restores the GOMAXPROCS default.
func SetDefaultParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int64(n))
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	if n := defaultParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports how a search run spent its effort. Checked + Pruned equals
// the number of candidate masks in scope (2^k for the full-universe
// searches).
type Stats struct {
	// Checked counts safety tests actually performed (oracle invocations
	// requested by the engine; a memoized oracle may answer some from cache).
	Checked int
	// Pruned counts candidate masks eliminated WITHOUT a safety test: by
	// MinCost's best-cost or best-index bound, or by the level sweeps'
	// Proposition 1 domination.
	Pruned int
	// OraclePasses counts oracle invocations. Every scan asks the oracle
	// about one mask per call, so it equals Checked; it is kept as its own
	// counter because reports and the served-path benchmark read it.
	OraclePasses int
}
