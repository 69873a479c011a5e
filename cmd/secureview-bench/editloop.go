package main

// Edit-loop rows: the interactive re-solve trajectory the warm-start tier
// (search.Options.Resume / solve Session warm cache) exists for. A chained
// loop of single-attribute cost edits is solved twice over the standard
// oracle-bound instance — cold (every edit from scratch) and warm (every
// edit resuming the previous solve's exported frontier) — and the p50
// per-edit latency of each mode is committed as its own row. Warm results
// must match the cold ones bit for bit at every edit; any divergence fails
// the run, so a committed baseline can never contain an unsound speedup.

import (
	"fmt"
	"sort"
	"time"

	"secureview/internal/exp"
	"secureview/internal/oracle"
	"secureview/internal/privacy"
	"secureview/internal/search"
)

// editFactors scales one attribute's cost per edit; the mix of growth and
// shrink factors moves the optimum around instead of pinning it.
var editFactors = [...]float64{1.6, 0.7, 1.3, 0.55, 1.9, 0.8, 1.45, 0.65}

// editLoopP50 runs the chained edit loop once in the given mode and returns
// the median per-edit solve latency plus the final edit's result.
func editLoopP50(sp *search.Space, comp *oracle.Compiled, costs privacy.Costs,
	gamma uint64, warm bool) (time.Duration, search.Result, error) {
	compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), gamma), nil }
	attrs := sp.Attrs()
	cur := make(privacy.Costs, len(costs))
	for a, c := range costs {
		cur[a] = c
	}

	var frontier *search.Frontier
	if warm {
		base, err := sp.MinCost(compiled, search.Options{})
		if err != nil {
			return 0, search.Result{}, err
		}
		if base.Frontier == nil {
			return 0, search.Result{}, fmt.Errorf("edit-loop: base solve exported no frontier")
		}
		frontier = base.Frontier
	}

	durations := make([]time.Duration, 0, len(editFactors))
	var last search.Result
	for e, f := range editFactors {
		cur[attrs[(e*5)%len(attrs)]] *= f
		spE := sp.WithCosts(cur.Of)
		start := time.Now()
		res, err := spE.MinCost(compiled, search.Options{Resume: frontier})
		d := time.Since(start)
		if err != nil {
			return 0, search.Result{}, fmt.Errorf("edit-loop edit %d: %w", e, err)
		}
		if warm {
			if !res.Stats.Resumed {
				return 0, search.Result{}, fmt.Errorf("edit-loop edit %d: warm solve did not resume", e)
			}
			frontier = res.Frontier
		}
		durations = append(durations, d)
		last = res
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)/2], last, nil
}

// editLoopResults measures both modes per k, cross-checks the final optima
// bit for bit, and returns the cold/warm rows (best p50 over reps).
func editLoopResults(quick bool, repsOverride int) ([]benchResult, error) {
	ks := []int{14, 16, 18}
	reps := 3
	if quick {
		ks = []int{12, 14}
		reps = 1
	}
	if repsOverride > 0 {
		reps = repsOverride
	}
	var results []benchResult
	for _, k := range ks {
		mv, costs, gamma := exp.SearchBenchInstance(k)
		sp, err := search.NewSpace(mv.Attrs(), costs.Of)
		if err != nil {
			return nil, err
		}
		comp, err := mv.Compile()
		if err != nil {
			return nil, err
		}
		modes := []struct {
			name string
			warm bool
		}{{"cold", false}, {"warm", true}}
		var reference search.Result
		for mi, mode := range modes {
			best := time.Duration(1 << 62)
			var last search.Result
			for i := 0; i < reps; i++ {
				p50, res, err := editLoopP50(sp, comp, costs, gamma, mode.warm)
				if err != nil {
					return nil, fmt.Errorf("edit-loop/%s k=%d: %w", mode.name, k, err)
				}
				if p50 < best {
					best = p50
				}
				last = res
			}
			if mi == 0 {
				reference = last
			} else if last.Found != reference.Found || last.Hidden != reference.Hidden || last.Cost != reference.Cost {
				return nil, fmt.Errorf("edit-loop k=%d: warm optimum (found=%v hidden=%b cost=%g) diverges from cold (found=%v hidden=%b cost=%g)",
					k, last.Found, last.Hidden, last.Cost, reference.Found, reference.Hidden, reference.Cost)
			}
			results = append(results, benchResult{
				Name:         "edit-loop/" + mode.name,
				K:            k,
				Gamma:        gamma,
				NsPerOp:      best.Nanoseconds(),
				Checked:      last.Stats.Checked,
				Pruned:       last.Stats.Pruned,
				Cost:         last.Cost,
				Hidden:       sp.NameSet(last.Hidden).Sorted(),
				OraclePasses: last.Stats.OraclePasses,
			})
		}
	}
	return results, nil
}
