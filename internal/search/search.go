// Package search is the shared subset-search engine behind the Secure-View
// optimizations: a bitset-mask enumerator over an ordered attribute universe
// with monotonicity pruning (Proposition 1 of Davidson et al., PODS 2011),
// cost-ordered exploration, and a goroutine worker pool.
//
// The paper proves the standalone Secure-View problem needs 2^Ω(k) safety
// tests in the worst case (Theorem 3), so the engine cannot beat exponential
// asymptotics; what it does instead is (a) avoid allocating a name set per
// candidate — subsets are machine words until a solution is materialized,
// (b) explore candidates in ascending (cost, lex) order, so the first safe
// candidate is the optimum and bounds everything after it, (c) exploit that
// safety is monotone in the hidden set — once a visible set is proved safe
// or unsafe, every dominated mask is decided for free — and (d) shard the
// mask space over workers with a shared best-index or best-cost bound, so
// multi-core hardware is actually used.
//
// A cold search below sortedMax is a pure (cost, lex) scan: per candidate
// one index-bound check and one oracle call, whose verdict is appended to a
// per-worker log. Costs are non-negative, so in that order a decided unsafe
// view dominates a later candidate only at equal cost (which takes
// zero-cost attributes), and a decided safe view only candidates the index
// bound already stops; the Proposition 1 domination stores would not prune
// there. They run on the streaming scan — warm resumes and universes above
// sortedMax — and in the exported Frontier, which a cold run builds from its
// logs the first time something reads it.
//
// Two optional reductions compose with the pruning without moving the
// answer: Options.Batch tests surviving candidates many masks per oracle
// pass (geometrically grown per-worker batches; see Stats.OraclePasses
// and Stats.BatchSize), and Options.Symmetry restricts enumeration to
// canonical name-prefix members of interchangeable equal-cost attribute
// classes, counting the skipped orbit as pruned — both keep the
// (cost, lex) optimum byte-identical.
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
	"sync"
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
	// name; permuted masks make the lexicographic tie-break O(1).
	permBit []Mask
	// scat lazily holds the cost-independent lex-order candidate scatter,
	// shared with Spaces derived via WithCosts so cost-only edits skip
	// rebuilding it.
	scat *lexScatter
}

// lexScatter caches every mask of a k-bit universe in ascending lexLess
// order. The order depends only on the attribute names, never on costs, so
// one scatter serves a whole WithCosts family of Spaces.
type lexScatter struct {
	once  sync.Once
	masks []Mask
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
	s.scat = &lexScatter{}
	return s, nil
}

// WithCosts returns a Space over the same attribute universe with re-read
// costs, sharing the cost-independent scaffolding (name permutation and the
// lex-order candidate scatter) with the receiver. It is the cheap way to
// re-solve after a cost-only edit: the sorted search path then only has to
// re-key and radix-sort, not recompute the lex order. nil means all-zero
// costs, as in NewSpace.
func (s *Space) WithCosts(cost func(string) float64) *Space {
	c := &Space{
		attrs:   s.attrs,
		costs:   make([]float64, len(s.attrs)),
		permBit: s.permBit,
		scat:    s.scat,
	}
	if cost != nil {
		for i, a := range s.attrs {
			c.costs[i] = cost(a)
		}
	}
	return c
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

// BatchOracle answers a whole slice of visible masks in one call, returning
// one verdict per mask in order. Implementations share the per-candidate
// work across the slice (the compiled oracle answers a chunk of masks in a
// single pass over its row codes) and must satisfy the same monotonicity
// and concurrency contract as Oracle; element i must equal what the
// per-mask oracle would answer for visible[i].
type BatchOracle func(visible []Mask) ([]bool, error)

// Batched lifts a per-mask oracle to the BatchOracle interface by looping —
// no batching win, but it lets call sites treat both uniformly.
func Batched(oracle Oracle) BatchOracle {
	return func(visible []Mask) ([]bool, error) {
		out := make([]bool, len(visible))
		for i, v := range visible {
			safe, err := oracle(v)
			if err != nil {
				return nil, err
			}
			out[i] = safe
		}
		return out, nil
	}
}

// DefaultFrontierCap bounds each Proposition 1 domination store. Beyond it
// further masks are dropped: pruning weakens, correctness is unaffected.
const DefaultFrontierCap = 256

// DefaultBatchSize is the per-pass mask cap used when Options.Batch is set
// but Options.BatchSize is zero.
const DefaultBatchSize = 64

// Options tunes an engine run.
type Options struct {
	// Parallelism is the worker-pool size. Zero or negative uses the package
	// default: runtime.GOMAXPROCS(0), overridable via SetDefaultParallelism.
	Parallelism int

	// Batch, when non-nil, lets MinCost submit sibling candidates to the
	// oracle in slices of up to BatchSize masks per call instead of one at a
	// time, so a batching oracle (oracle.Compiled.IsSafeBatch) can amortize
	// its per-candidate pass. Batch must agree element-wise with the
	// per-mask oracle, which remains required (levels enumeration and
	// single-candidate flushes still use it).
	Batch BatchOracle

	// BatchSize caps the masks per Batch call (0 = DefaultBatchSize).
	// Ignored when Batch is nil.
	BatchSize int

	// Symmetry lists equivalence classes of attributes (indices into
	// Attrs()) that are interchangeable under the oracle AND carry equal
	// hiding costs: swapping the visibility of two class members never
	// changes the oracle's verdict or a candidate's cost. MinCost then
	// enumerates only canonical masks — those hiding, within each class, a
	// prefix of the class's name-sorted members — and counts the skipped
	// masks as pruned. The lexicographically smallest minimum-cost hidden
	// set is always canonical (an exchange swapping a hidden member for an
	// unhidden name-smaller one preserves cost and safety and lowers the
	// lex rank), so the result is byte-identical to the unrestricted
	// search. Classes must be disjoint; classes with fewer than two members
	// are ignored.
	Symmetry [][]int

	// Resume, when non-nil, pre-seeds the search from a Frontier exported
	// by an earlier run over the same attribute universe AND the same
	// oracle semantics: the Proposition 1 domination stores, the full
	// verdict memo (oracle answers replayed without an oracle call), and —
	// because a known-safe view bounds the optimum — the best-cost bound.
	// Every accepted Resume runs the streaming scan, even below sortedMax;
	// the sorted (cost, lex) scan is cold-only. Safety verdicts are
	// cost-independent, so a Frontier stays valid under any cost
	// re-weighting; a Frontier whose universe does not match the Space
	// exactly is ignored and the search runs cold. The (cost, lex) optimum
	// is byte-identical with or without Resume. Stats.Resumed reports
	// whether the frontier was accepted.
	Resume *Frontier
}

// batchCap returns the candidate-buffer size for one worker: 1 without a
// batch oracle (per-mask calls, today's behavior), BatchSize with one.
func (o Options) batchCap() int {
	if o.Batch == nil {
		return 1
	}
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
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
	// Pruned counts candidate masks eliminated WITHOUT a safety test: by the
	// best-cost bound, by Proposition 1 domination, by symmetry breaking, or
	// by early exit once the optimum is pinned.
	Pruned int
	// OraclePasses counts oracle invocations: a batched call answering many
	// masks is ONE pass, so Checked/OraclePasses is the mean batch size.
	OraclePasses int
	// BatchSize is the largest number of masks submitted in a single pass
	// (1 when no batch oracle was configured).
	BatchSize int
	// Resumed reports whether Options.Resume was accepted (universe
	// matched); ResumedSafe / ResumedUnsafe count the masks imported into
	// the safe and unsafe domination stores from the supplied Frontier, and
	// MemoHits counts candidates decided by the frontier's verdict memo
	// instead of an oracle call (they are also counted in Pruned).
	Resumed       bool
	ResumedSafe   int
	ResumedUnsafe int
	MemoHits      int
}

// frontier is a concurrency-safe antichain of masks used for Proposition 1
// domination: the unsafe frontier stores minimal unsafe visible masks (any
// superset is unsafe), the safe frontier stores maximal safe visible masks
// (any subset is safe). Bounded so membership checks stay cheap; masks that
// would grow a full store are dropped.
type frontier struct {
	mu    sync.RWMutex
	masks []Mask
	cap   int
}

func newFrontier(capacity int) *frontier { return &frontier{cap: capacity} }

// dominatesSuper reports whether some stored mask is a subset of v.
func (f *frontier) dominatesSuper(v Mask) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, u := range f.masks {
		if u&v == u {
			return true
		}
	}
	return false
}

// dominatesSub reports whether v is a subset of some stored mask.
func (f *frontier) dominatesSub(v Mask) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, u := range f.masks {
		if v&u == v {
			return true
		}
	}
	return false
}

// insertMinimal adds u keeping only inclusion-minimal masks. One read pass
// finds both an entry covering u (then nothing changes) and the first
// superset of u; the slice is rebuilt only when some superset is evicted.
func (f *frontier) insertMinimal(u Mask) {
	f.mu.Lock()
	defer f.mu.Unlock()
	first := -1
	for i, e := range f.masks {
		if e&u == e { // existing subset already covers u
			return
		}
		if first < 0 && u&e == u {
			first = i
		}
	}
	if first >= 0 {
		kept := f.masks[:first]
		for _, e := range f.masks[first+1:] {
			if u&e != u { // drop supersets of u
				kept = append(kept, e)
			}
		}
		f.masks = kept
	}
	f.add(u)
}

// insertMaximal adds u keeping only inclusion-maximal masks, in one read
// pass like insertMinimal.
func (f *frontier) insertMaximal(u Mask) {
	f.mu.Lock()
	defer f.mu.Unlock()
	first := -1
	for i, e := range f.masks {
		if u&e == u { // existing superset already covers u
			return
		}
		if first < 0 && e&u == e {
			first = i
		}
	}
	if first >= 0 {
		kept := f.masks[:first]
		for _, e := range f.masks[first+1:] {
			if e&u != e { // drop subsets of u
				kept = append(kept, e)
			}
		}
		f.masks = kept
	}
	f.add(u)
}

// add appends u unless the store is at capacity. The caller holds the
// write lock.
func (f *frontier) add(u Mask) {
	if len(f.masks) < f.cap {
		f.masks = append(f.masks, u)
	}
}
