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
	// Proposition 1 monotonicity, or early exit once the optimum is
	// pinned). Checked + Pruned always equals 2^k.
	Checked int
	Pruned  int
	// OraclePasses counts oracle invocations; the engine asks about one
	// subset per call, so it equals Checked.
	OraclePasses int
}

// Oracle adapts the Lemma 4 safety test to the search engine over sp, which
// must be built over mv.Attrs() (inputs then outputs): the exact bit order
// the compiled oracle uses, so engine masks pass through by integer
// conversion. It is the one place a module-level search chooses its test.
// The compiled integer-coded oracle is preferred: it is built once per
// call, shared read-only across the engine's worker pool, and answers each
// mask with a stamped counting pass over packed row codes — no name sets,
// no relation scans, no per-call allocation. Modules whose domain products
// overflow uint64 fall back to the interpreted Lemma 4 test.
func (mv ModuleView) Oracle(sp *search.Space, gamma uint64) search.Oracle {
	if c, err := mv.Compile(); err == nil {
		return func(visible search.Mask) (bool, error) {
			return c.IsSafe(oracle.Mask(visible), gamma), nil
		}
	}
	return func(visible search.Mask) (bool, error) {
		return mv.IsSafe(sp.NameSet(visible), gamma)
	}
}

// MinCostSafeSubset solves the standalone Secure-View problem over all 2^k
// attribute subsets (the paper proves 2^Ω(k) safety tests are required in
// the worst case, Theorem 3; k is small in practice, section 3.2) using the
// pruned parallel engine of internal/search. Ties on cost are broken toward
// the hidden set that is lexicographically smallest as a sorted name
// sequence, so the result is deterministic.
func (mv ModuleView) MinCostSafeSubset(costs Costs, gamma uint64) (SearchResult, error) {
	attrs := mv.Attrs()
	if len(attrs) > search.MaxAttrs {
		return SearchResult{}, fmt.Errorf("privacy: %d attributes too many for brute force", len(attrs))
	}
	sp, err := search.NewSpace(attrs, costs.Of)
	if err != nil {
		return SearchResult{}, fmt.Errorf("privacy: %w", err)
	}
	res, err := sp.MinCost(mv.Oracle(sp, gamma), search.Options{})
	if err != nil {
		return SearchResult{}, err
	}
	out := SearchResult{
		Found:        res.Found,
		Checked:      res.Stats.Checked,
		Pruned:       res.Stats.Pruned,
		OraclePasses: res.Stats.OraclePasses,
	}
	if res.Found {
		out.Hidden = sp.NameSet(res.Hidden)
		out.Visible = sp.NameSet(sp.All() &^ res.Hidden)
		out.Cost = res.Cost
	}
	return out, nil
}

// SafeViewOracle answers safety queries for a fixed module and Γ (the
// oracle of Theorem 3).
type SafeViewOracle interface {
	// IsSafe reports whether the visible set is safe.
	IsSafe(visible relation.NameSet) (bool, error)
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
