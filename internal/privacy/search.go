package privacy

import (
	"fmt"
	"sort"
	"sync/atomic"

	"secureview/internal/oracle"
	"secureview/internal/relation"
	"secureview/internal/search"
)

// Costs assigns a hiding penalty to each attribute. Missing attributes are
// treated as free (cost 0).
type Costs map[string]float64

// Of returns the cost of one attribute.
func (c Costs) Of(name string) float64 { return c[name] }

// Sum returns the total cost of a hidden set. The summation runs over the
// set's names in sorted order so the float64 result is bit-identical across
// runs: map iteration order would otherwise reorder the additions, and float
// addition is not associative, which used to leave heuristic solvers off by
// an ulp between identical requests.
func (c Costs) Sum(hidden relation.NameSet) float64 {
	names := make([]string, 0, len(hidden))
	for n := range hidden {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0.0
	for _, n := range names {
		total += c[n]
	}
	return total
}

// Uniform returns unit costs for the given attributes.
func Uniform(names ...string) Costs {
	c := make(Costs, len(names))
	for _, n := range names {
		c[n] = 1
	}
	return c
}

// Attrs returns the module view's attributes, inputs then outputs.
func (mv ModuleView) Attrs() []string {
	return append(append([]string{}, mv.Inputs...), mv.Outputs...)
}

// SearchResult is the outcome of a standalone Secure-View search.
type SearchResult struct {
	// Hidden is the minimum-cost hidden set V̄; Visible is its complement.
	Hidden  relation.NameSet
	Visible relation.NameSet
	// Cost is c(V̄).
	Cost float64
	// Found is false when no subset (not even hiding everything) is safe,
	// which happens when Γ exceeds the module's output-range size.
	Found bool
	// Checked counts safety tests actually performed; Pruned counts the
	// candidate subsets eliminated without a test (best-cost bound,
	// Proposition 1 monotonicity, symmetry breaking, or early exit once the
	// optimum is pinned). Checked + Pruned always equals 2^k.
	Checked int
	Pruned  int
	// OraclePasses counts oracle invocations: with a batch oracle a single
	// pass may answer many candidates, so OraclePasses <= Checked. BatchSize
	// is the largest batch answered in one pass (1 without batching).
	OraclePasses int
	BatchSize    int
}

// searchSpace builds the mask universe for the module view's attributes.
func (mv ModuleView) searchSpace(costs Costs) (*search.Space, error) {
	return search.NewSpace(mv.Attrs(), costs.Of)
}

// maskOracles adapts the Lemma 4 safety test to the engine. The compiled
// integer-coded oracle is preferred: it is built once per search, shared
// read-only across the engine's worker pool, and answers each mask with a
// stamped counting pass over packed row codes — no name sets, no relation
// scans, no per-call allocation. The search space is built over mv.Attrs()
// (inputs then outputs), the exact bit order the compiled oracle uses, so
// engine masks pass through by integer conversion. The compiled table is
// returned alongside so callers can wire its batch interface and symmetry
// classes into the engine options; modules whose domain products overflow
// uint64 fall back to the interpreted Lemma 4 test (nil table).
func (mv ModuleView) maskOracles(sp *search.Space, gamma uint64) (search.Oracle, *oracle.Compiled) {
	if c, err := mv.Compile(); err == nil {
		return func(visible search.Mask) (bool, error) {
			return c.IsSafe(oracle.Mask(visible), gamma), nil
		}, c
	}
	return func(visible search.Mask) (bool, error) {
		return mv.IsSafe(sp.NameSet(visible), gamma)
	}, nil
}

// maskOracle is maskOracles without the compiled handle, for the
// enumeration entry points that cannot use batching or symmetry.
func (mv ModuleView) maskOracle(sp *search.Space, gamma uint64) search.Oracle {
	orc, _ := mv.maskOracles(sp, gamma)
	return orc
}

// CompiledSearchOptions wires a compiled oracle into engine options: the
// batch interface (one counting pass answers a whole chunk of sibling
// candidates) and the equal-cost oracle equivalence classes as symmetry-
// breaking input. Fields the caller already set are left alone. The gamma
// must match the one the per-mask oracle uses.
func CompiledSearchOptions(c *oracle.Compiled, costs Costs, gamma uint64, opts search.Options) search.Options {
	if opts.Batch == nil {
		opts.Batch = func(visible []search.Mask) ([]bool, error) {
			ms := make([]oracle.Mask, len(visible))
			for i, v := range visible {
				ms[i] = oracle.Mask(v)
			}
			return c.IsSafeBatch(ms, gamma), nil
		}
	}
	if opts.Symmetry == nil {
		opts.Symmetry = EqualCostClasses(c.EquivClasses(), c.Attrs(), costs)
	}
	return opts
}

// EqualCostClasses restricts attribute equivalence classes (indices into
// attrs) to members sharing one hiding cost — the extra condition under
// which the engine's symmetry breaking preserves the (cost, lex) optimum
// exactly. Subclasses with fewer than two members are dropped.
func EqualCostClasses(classes [][]int, attrs []string, costs Costs) [][]int {
	var out [][]int
	for _, cl := range classes {
		var byCost []struct {
			cost    float64
			members []int
		}
		for _, i := range cl {
			c := costs.Of(attrs[i])
			found := false
			for bi := range byCost {
				if byCost[bi].cost == c {
					byCost[bi].members = append(byCost[bi].members, i)
					found = true
					break
				}
			}
			if !found {
				byCost = append(byCost, struct {
					cost    float64
					members []int
				}{c, []int{i}})
			}
		}
		for _, g := range byCost {
			if len(g.members) >= 2 {
				out = append(out, g.members)
			}
		}
	}
	return out
}

// MinCostSafeSubset solves the standalone Secure-View problem over all 2^k
// attribute subsets (the paper proves 2^Ω(k) safety tests are required in
// the worst case, Theorem 3; k is small in practice, section 3.2) using the
// pruned parallel engine of internal/search. Ties on cost are broken toward
// the hidden set that is lexicographically smallest as a sorted name
// sequence, so the result is deterministic.
func (mv ModuleView) MinCostSafeSubset(costs Costs, gamma uint64) (SearchResult, error) {
	return mv.MinCostSafeSubsetOpts(costs, gamma, search.Options{})
}

// MinCostSafeSubsetOpts is MinCostSafeSubset with engine options (worker
// parallelism).
func (mv ModuleView) MinCostSafeSubsetOpts(costs Costs, gamma uint64, opts search.Options) (SearchResult, error) {
	attrs := mv.Attrs()
	if len(attrs) > search.MaxAttrs {
		return SearchResult{}, fmt.Errorf("privacy: %d attributes too many for brute force", len(attrs))
	}
	sp, err := mv.searchSpace(costs)
	if err != nil {
		return SearchResult{}, fmt.Errorf("privacy: %w", err)
	}
	orc, comp := mv.maskOracles(sp, gamma)
	if comp != nil {
		opts = CompiledSearchOptions(comp, costs, gamma, opts)
	}
	res, err := sp.MinCost(orc, opts)
	if err != nil {
		return SearchResult{}, err
	}
	out := SearchResult{
		Found:        res.Found,
		Checked:      res.Stats.Checked,
		Pruned:       res.Stats.Pruned,
		OraclePasses: res.Stats.OraclePasses,
		BatchSize:    res.Stats.BatchSize,
	}
	if res.Found {
		out.Hidden = sp.NameSet(res.Hidden)
		out.Visible = sp.NameSet(sp.All() &^ res.Hidden)
		out.Cost = res.Cost
	}
	return out, nil
}

// AllSafeVisibleSubsets enumerates every visible subset V ⊆ I∪O that is
// safe for Γ, in the engine's deterministic order. Exponential output;
// intended for constraint-list derivation and tests.
func (mv ModuleView) AllSafeVisibleSubsets(gamma uint64) ([]relation.NameSet, error) {
	return mv.AllSafeVisibleSubsetsOpts(gamma, search.Options{})
}

// AllSafeVisibleSubsetsOpts is AllSafeVisibleSubsets with engine options.
func (mv ModuleView) AllSafeVisibleSubsetsOpts(gamma uint64, opts search.Options) ([]relation.NameSet, error) {
	attrs := mv.Attrs()
	if len(attrs) > search.LevelMax {
		return nil, fmt.Errorf("privacy: %d attributes too many to enumerate", len(attrs))
	}
	sp, err := mv.searchSpace(nil)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	masks, _, err := sp.AllSafeVisible(mv.maskOracle(sp, gamma), opts)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	out := make([]relation.NameSet, len(masks))
	for i, m := range masks {
		out[i] = sp.NameSet(m)
	}
	return out, nil
}

// MinimalSafeHiddenSets enumerates the inclusion-minimal hidden sets V̄ such
// that V = (I∪O)\V̄ is safe for Γ. By Proposition 1 safety is monotone in
// the hidden set, so these minimal sets generate all safe solutions and
// serve as the per-module requirement lists Li of the workflow Secure-View
// problem with set constraints (section 4.2). The engine exploits the same
// monotonicity to skip every dominated subset without a safety test.
func (mv ModuleView) MinimalSafeHiddenSets(gamma uint64) ([]relation.NameSet, error) {
	return mv.MinimalSafeHiddenSetsOpts(gamma, search.Options{})
}

// MinimalSafeHiddenSetsOpts is MinimalSafeHiddenSets with engine options.
func (mv ModuleView) MinimalSafeHiddenSetsOpts(gamma uint64, opts search.Options) ([]relation.NameSet, error) {
	attrs := mv.Attrs()
	if len(attrs) > search.LevelMax {
		return nil, fmt.Errorf("privacy: %d attributes too many to enumerate", len(attrs))
	}
	sp, err := mv.searchSpace(nil)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	masks, _, err := sp.MinimalSafeHidden(mv.maskOracle(sp, gamma), opts)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	out := make([]relation.NameSet, len(masks))
	for i, m := range masks {
		out[i] = sp.NameSet(m)
	}
	return out, nil
}

// SafeViewOracle answers safety queries for a fixed module and Γ (the
// oracle of Theorem 3).
type SafeViewOracle interface {
	// IsSafe reports whether the visible set is safe.
	IsSafe(visible relation.NameSet) (bool, error)
}

// relationOracle implements SafeViewOracle on a concrete module view.
type relationOracle struct {
	mv    ModuleView
	gamma uint64
}

// OracleFor returns a Safe-View oracle backed by the module view. The view
// is compiled to the integer-coded oracle when possible (one compilation,
// answering every later query with integer lookups); views whose domain
// products overflow uint64 get the interpreted oracle instead. Both are safe
// for concurrent use under the parallel engine.
func OracleFor(mv ModuleView, gamma uint64) SafeViewOracle {
	if c, err := mv.Compile(); err == nil {
		return compiledOracle{c: c, gamma: gamma}
	}
	return relationOracle{mv: mv, gamma: gamma}
}

func (o relationOracle) IsSafe(visible relation.NameSet) (bool, error) {
	return o.mv.IsSafe(visible, o.gamma)
}

// compiledOracle answers Safe-View queries from a compiled module view.
type compiledOracle struct {
	c     *oracle.Compiled
	gamma uint64
}

func (o compiledOracle) IsSafe(visible relation.NameSet) (bool, error) {
	return o.c.IsSafe(o.c.MaskOf(visible), o.gamma), nil
}

// BatchSafeViewOracle is a SafeViewOracle that can answer many visible sets
// in one pass. The engine detects it and amortizes per-row decode work
// across sibling candidates.
type BatchSafeViewOracle interface {
	SafeViewOracle
	// IsSafeBatch answers safety for each visible set, in order.
	IsSafeBatch(visible []relation.NameSet) ([]bool, error)
}

func (o compiledOracle) IsSafeBatch(visible []relation.NameSet) ([]bool, error) {
	ms := make([]oracle.Mask, len(visible))
	for i, v := range visible {
		ms[i] = o.c.MaskOf(v)
	}
	return o.c.IsSafeBatch(ms, o.gamma), nil
}

// EngineMinCostWithOracle runs the pruned parallel engine against an
// arbitrary Safe-View oracle. The oracle MUST be monotone (Proposition 1)
// and safe for concurrent use — CountingOracle adds its own bookkeeping
// safely but still delegates concurrently, so it does NOT make a
// non-thread-safe inner oracle safe. For adversarial, non-monotone oracles
// use MinCostSafeSubsetWithOracle, which assumes nothing. The engine asks
// about each visible set at most once per call.
func EngineMinCostWithOracle(attrs []string, costs Costs, oracle SafeViewOracle, opts search.Options) (SearchResult, error) {
	if len(attrs) > search.MaxAttrs {
		return SearchResult{}, fmt.Errorf("privacy: %d attributes too many", len(attrs))
	}
	sp, err := search.NewSpace(attrs, costs.Of)
	if err != nil {
		return SearchResult{}, fmt.Errorf("privacy: %w", err)
	}
	if bo, ok := oracle.(BatchSafeViewOracle); ok && opts.Batch == nil {
		opts.Batch = func(visible []search.Mask) ([]bool, error) {
			sets := make([]relation.NameSet, len(visible))
			for i, v := range visible {
				sets[i] = sp.NameSet(v)
			}
			return bo.IsSafeBatch(sets)
		}
	}
	res, err := sp.MinCost(func(visible search.Mask) (bool, error) {
		return oracle.IsSafe(sp.NameSet(visible))
	}, opts)
	if err != nil {
		return SearchResult{}, err
	}
	out := SearchResult{
		Found:        res.Found,
		Checked:      res.Stats.Checked,
		Pruned:       res.Stats.Pruned,
		OraclePasses: res.Stats.OraclePasses,
		BatchSize:    res.Stats.BatchSize,
	}
	if res.Found {
		out.Hidden = sp.NameSet(res.Hidden)
		out.Visible = sp.NameSet(sp.All() &^ res.Hidden)
		out.Cost = res.Cost
	}
	return out, nil
}

// CountingOracle wraps a SafeViewOracle and counts calls. It is safe for
// concurrent use, so it can sit under the parallel search engine.
type CountingOracle struct {
	Inner SafeViewOracle
	calls atomic.Int64
}

// IsSafe delegates and increments the call counter.
func (c *CountingOracle) IsSafe(visible relation.NameSet) (bool, error) {
	c.calls.Add(1)
	return c.Inner.IsSafe(visible)
}

// Calls returns the number of oracle queries made so far.
func (c *CountingOracle) Calls() int { return int(c.calls.Load()) }

// MinCostSafeSubsetWithOracle solves the standalone Secure-View decision
// problem using only oracle calls: it asks the oracle about every subset in
// increasing cost order until it finds a safe one of cost <= budget. It
// returns the hidden set found (nil if none), its cost, and the number of
// oracle calls. This is the generic 2^k-call upper bound of section 3.2; it
// deliberately assumes NOTHING about the oracle (no monotonicity), because
// the Theorem 3 adversary answers inconsistently with any fixed module.
func MinCostSafeSubsetWithOracle(attrs []string, costs Costs, oracle *CountingOracle, budget float64) (relation.NameSet, float64, int, error) {
	k := len(attrs)
	if k > 24 {
		return nil, 0, 0, fmt.Errorf("privacy: %d attributes too many", k)
	}
	type cand struct {
		mask int
		cost float64
	}
	cands := make([]cand, 0, 1<<k)
	for mask := 0; mask < 1<<k; mask++ {
		cost := 0.0
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				cost += costs.Of(a)
			}
		}
		if cost <= budget {
			cands = append(cands, cand{mask, cost})
		}
	}
	// Sort by cost ascending (ties on mask for determinism).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].mask < cands[j].mask
	})
	start := oracle.Calls()
	all := relation.NewNameSet(attrs...)
	for _, c := range cands {
		hidden := make(relation.NameSet)
		for i, a := range attrs {
			if c.mask&(1<<i) != 0 {
				hidden.Add(a)
			}
		}
		safe, err := oracle.IsSafe(all.Minus(hidden))
		if err != nil {
			return nil, 0, oracle.Calls() - start, err
		}
		if safe {
			return hidden, c.cost, oracle.Calls() - start, nil
		}
	}
	return nil, 0, oracle.Calls() - start, nil
}
