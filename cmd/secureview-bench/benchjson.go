package main

// The -benchjson mode bootstraps the perf trajectory: it times the
// standalone Secure-View search on the standard oracle-bound instances
// (exp.SearchBenchInstance) across three variants — the naive 2^k loop, the
// pruned parallel engine with the interpreted Lemma 4 oracle, and the same
// engine with the compiled integer-coded oracle — and writes the numbers as
// JSON so future changes can be compared against a committed baseline
// instead of eyeballed log output. Optimal costs and hidden sets must agree
// across variants; a mismatch fails the run.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/oracle"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// benchResult is one (variant, k) measurement.
type benchResult struct {
	Name    string   `json:"name"` // standalone-search/<variant>
	K       int      `json:"k"`
	Gamma   uint64   `json:"gamma"`
	NsPerOp int64    `json:"ns_per_op"` // best of reps
	Checked int      `json:"checked"`
	Pruned  int      `json:"pruned"`
	Cost    float64  `json:"cost"`
	Hidden  []string `json:"hidden"`

	// OraclePasses counts the oracle invocations an engine row issued (one
	// per safety test, so it equals Checked).
	OraclePasses int `json:"oracle_passes,omitempty"`

	// MedianNs and ColdSolveNs are, on restored first-solve rows, the
	// medians over paired runs of the restored first solve and of the cold
	// side's solve without its derivation: the numbers restoredFloor reads.
	MedianNs    int64 `json:"median_ns,omitempty"`
	ColdSolveNs int64 `json:"cold_solve_ns,omitempty"`
}

// timeBest runs fn reps times and returns the fastest wall-clock run.
func timeBest(reps int, fn func() (search.Result, error)) (search.Result, time.Duration, error) {
	var best time.Duration = 1 << 62
	var res search.Result
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, err := fn()
		d := time.Since(start)
		if err != nil {
			return search.Result{}, 0, err
		}
		if d < best {
			best = d
			res = r
		}
	}
	return res, best, nil
}

// collectBenchResults runs the full measurement sweep — standalone search,
// snapshot, served, scenario, corpus and mega rows — and returns them in
// deterministic order.
// The gate mode (-benchgate) reuses exactly this collection so the numbers
// it compares are the numbers the baseline writer would commit; it passes a
// repsOverride > 0 so even quick sweeps take a best-of-several, since a
// single cold run of a sub-millisecond row is mostly scheduler noise.
func collectBenchResults(quick bool, repsOverride int) ([]benchResult, error) {
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
		interpreted := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }
		comp, err := mv.Compile()
		if err != nil {
			return nil, err
		}
		compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), gamma), nil }

		variants := []struct {
			name   string
			oracle search.Oracle
		}{{"naive", interpreted}, {"engine-interpreted", interpreted}, {"engine-compiled", compiled}}
		var reference search.Result
		for vi, v := range variants {
			res, best, err := timeBest(reps, func() (search.Result, error) {
				if vi == 0 {
					return sp.NaiveMinCost(v.oracle)
				}
				return sp.MinCost(v.oracle, search.Options{})
			})
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", v.name, k, err)
			}
			if !res.Found {
				return nil, fmt.Errorf("%s k=%d: no safe subset found", v.name, k)
			}
			if vi > 0 {
				// The timed runs use GOMAXPROCS workers, whose speculative
				// checks depend on the schedule; the row's counters come from
				// one single-worker run, which replays.
				serial, err := sp.MinCost(v.oracle, search.Options{Parallelism: 1})
				if err != nil {
					return nil, fmt.Errorf("%s k=%d single-worker: %w", v.name, k, err)
				}
				if serial.Hidden != res.Hidden || serial.Cost != res.Cost {
					return nil, fmt.Errorf("%s k=%d: single-worker optimum (hidden=%b cost=%g) diverges from the timed run's (hidden=%b cost=%g)",
						v.name, k, serial.Hidden, serial.Cost, res.Hidden, res.Cost)
				}
				res.Stats = serial.Stats
			}
			switch vi {
			case 0:
				// The naive loop breaks equal-cost ties by numeric mask order,
				// not the engine's lexicographic rule, so only its optimal
				// COST anchors the comparison.
				reference = res
			case 1:
				if res.Cost != reference.Cost {
					return nil, fmt.Errorf("%s k=%d: optimal cost %g diverges from naive %g",
						v.name, k, res.Cost, reference.Cost)
				}
				reference = res // engine runs must agree exactly from here on
			default:
				if res.Cost != reference.Cost || res.Hidden != reference.Hidden {
					return nil, fmt.Errorf("%s k=%d: optimum (hidden=%b cost=%g) diverges from engine-interpreted (hidden=%b cost=%g)",
						v.name, k, res.Hidden, res.Cost, reference.Hidden, reference.Cost)
				}
			}
			results = append(results, benchResult{
				Name:         "standalone-search/" + v.name,
				K:            k,
				Gamma:        gamma,
				NsPerOp:      best.Nanoseconds(),
				Checked:      res.Stats.Checked,
				Pruned:       res.Stats.Pruned,
				Cost:         res.Cost,
				Hidden:       sp.NameSet(res.Hidden).Sorted(),
				OraclePasses: res.Stats.OraclePasses,
			})
		}
	}
	snaps, err := snapshotResults(quick, repsOverride)
	if err != nil {
		return nil, err
	}
	results = append(results, snaps...)
	served, err := servedResults(quick, repsOverride)
	if err != nil {
		return nil, err
	}
	results = append(results, served...)
	scen, err := scenarioResults(quick, repsOverride)
	if err != nil {
		return nil, err
	}
	results = append(results, scen...)
	corp, err := corpusResults(quick, repsOverride)
	if err != nil {
		return nil, err
	}
	results = append(results, corp...)
	mega, err := megaResults(quick)
	if err != nil {
		return nil, err
	}
	return append(results, mega...), nil
}

// corpusResults times the single-worker engine and the exact branch and
// bound on the hardest committed corpus entries (internal/gen/corpus) —
// the adversarially mined instances that defeat the engine's pruning,
// exactly the rows where an engine regression shows up amplified. The two
// must return the same hidden set at the same cost, and the deterministic
// engine Checked counter must replay the committed value, so a baseline
// row can never go stale silently. Rows are named by corpus ID; the perf
// gate ignores rows absent from its baseline, so re-mining the corpus does
// not invalidate old baselines.
func corpusResults(quick bool, repsOverride int) ([]benchResult, error) {
	reps, n := 3, 5
	if quick {
		reps, n = 1, 2
	}
	if repsOverride > 0 {
		reps = repsOverride
	}
	var results []benchResult
	for i, e := range corpus.Entries() {
		if i >= n {
			break
		}
		if e.Disagree {
			continue
		}
		it, err := e.Instance()
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", e.ID, err)
		}
		p, err := it.Derive(secureview.Set)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", e.ID, err)
		}
		sopts := solve.Options{Variant: secureview.Set, NodeBudget: 1 << 22, Workers: 1}
		res, best, err := timeSolve(reps, "engine", p, sopts)
		if err != nil {
			return nil, fmt.Errorf("corpus %s engine: %w", e.ID, err)
		}
		er, exactBest, err := timeSolve(reps, "exact", p, sopts)
		if err != nil {
			return nil, fmt.Errorf("corpus %s exact: %w", e.ID, err)
		}
		if !er.Solution.Hidden.Equal(res.Solution.Hidden) || er.Cost != res.Cost {
			return nil, fmt.Errorf("corpus %s: exact optimum %v (%v) diverges from engine %v (%v)",
				e.ID, er.Solution.Hidden.Sorted(), er.Cost, res.Solution.Hidden.Sorted(), res.Cost)
		}
		if res.Counters.Checked != e.Checked {
			return nil, fmt.Errorf("corpus %s: engine checked %d, committed %d (generator or engine drifted; re-mine)",
				e.ID, res.Counters.Checked, e.Checked)
		}
		results = append(results,
			benchResult{
				Name: "corpus/" + e.ID + "/engine", K: e.K, Gamma: it.Gamma,
				NsPerOp: best.Nanoseconds(), Cost: res.Cost,
				Hidden:       res.Solution.Hidden.Sorted(),
				Checked:      res.Counters.Checked,
				Pruned:       res.Counters.Pruned,
				OraclePasses: res.Counters.OraclePasses,
			},
			// Checked counts the branch and bound's search-tree nodes.
			benchResult{
				Name: "corpus/" + e.ID + "/exact", K: e.K, Gamma: it.Gamma,
				NsPerOp: exactBest.Nanoseconds(), Cost: er.Cost,
				Hidden:  er.Solution.Hidden.Sorted(),
				Checked: er.Counters.Nodes,
			})
	}
	return results, nil
}

// timeSolve runs the named registry solver reps times and returns the
// fastest run's result and wall-clock time.
func timeSolve(reps int, solver string, p *secureview.Problem, opts solve.Options) (solve.Result, time.Duration, error) {
	best := time.Duration(1 << 62)
	var res solve.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		got, err := solve.Solve(context.Background(), solver, p, opts)
		d := time.Since(start)
		if err != nil {
			return solve.Result{}, 0, err
		}
		if d < best {
			best, res = d, got
		}
	}
	return res, best, nil
}

func writeBenchJSON(path string, quick bool) error {
	results, err := collectBenchResults(quick, 0)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// scenarioResults extends the trajectory across instance SHAPES: for every
// canonical generated topology class (internal/gen), it times derivation
// and the full solver mix on a fixed-seed instance, so BENCH_results.json
// tracks performance per topology class, not just per k. Solver sanity
// (greedy and the LP rounding never beating the exact optimum) fails the
// run, mirroring the cross-variant checks of the standalone rows.
func scenarioResults(quick bool, repsOverride int) ([]benchResult, error) {
	reps := 3
	if quick {
		reps = 1
	}
	if repsOverride > 0 {
		reps = repsOverride
	}
	var results []benchResult
	for _, cl := range gen.Classes() {
		// The canonical classes derive feasibly on the early seeds; scan a
		// few in case a class tightens later.
		var it *gen.Instance
		var p *secureview.Problem
		for seed := int64(0); seed < 8; seed++ {
			cand, err := gen.New(cl.Cfg, seed)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", cl.Name, err)
			}
			if derived, err := cand.Derive(secureview.Set); err == nil {
				it, p = cand, derived
				break
			}
		}
		if it == nil {
			return nil, fmt.Errorf("scenario %s: no seed derives a feasible instance", cl.Name)
		}
		k := it.W.Schema().Len()

		deriveBest := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := it.Derive(secureview.Set); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", cl.Name, err)
			}
			if d := time.Since(start); d < deriveBest {
				deriveBest = d
			}
		}
		results = append(results, benchResult{
			Name: "scenario/" + cl.Name + "/derive", K: k, Gamma: it.Gamma,
			NsPerOp: deriveBest.Nanoseconds(),
		})

		exact, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			return nil, fmt.Errorf("scenario %s exact: %w", cl.Name, err)
		}
		optCost := p.Cost(exact)
		solvers := []struct {
			name string
			run  func() (secureview.Solution, error)
		}{
			{"greedy", func() (secureview.Solution, error) { return secureview.Greedy(p, secureview.Set), nil }},
			{"lp", func() (secureview.Solution, error) { s, _, err := secureview.SetLPRound(p); return s, err }},
			{"exact", func() (secureview.Solution, error) { return secureview.ExactSet(p, 1<<22) }},
		}
		for _, s := range solvers {
			best := time.Duration(1 << 62)
			var sol secureview.Solution
			for i := 0; i < reps; i++ {
				start := time.Now()
				got, err := s.run()
				d := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("scenario %s %s: %w", cl.Name, s.name, err)
				}
				if d < best {
					best = d
					sol = got
				}
			}
			cost := p.Cost(sol)
			if cost < optCost-1e-9*(1+optCost) {
				return nil, fmt.Errorf("scenario %s: %s cost %g beats exact optimum %g",
					cl.Name, s.name, cost, optCost)
			}
			results = append(results, benchResult{
				Name: "scenario/" + cl.Name + "/" + s.name, K: k, Gamma: it.Gamma,
				NsPerOp: best.Nanoseconds(), Cost: cost,
				Hidden: sol.Hidden.Sorted(),
			})
		}

		// Registry row: the engine solver (set variant, when its all-private
		// ≤24-attribute capability admits the instance), exact, so its cost
		// is pinned to the optimum, not just bounded by it.
		if s, ok := solve.Get("engine"); ok && s.Supports(p, secureview.Set) == nil {
			sopts := solve.Options{Variant: secureview.Set, NodeBudget: 1 << 22}
			res, best, err := timeSolve(reps, "engine", p, sopts)
			if err != nil {
				return nil, fmt.Errorf("scenario %s engine: %w", cl.Name, err)
			}
			if diff := res.Cost - optCost; diff > 1e-9*(1+optCost) || -diff > 1e-9*(1+optCost) {
				return nil, fmt.Errorf("scenario %s: engine cost %g diverges from exact optimum %g",
					cl.Name, res.Cost, optCost)
			}
			results = append(results, benchResult{
				Name: "scenario/" + cl.Name + "/engine", K: k, Gamma: it.Gamma,
				NsPerOp: best.Nanoseconds(), Cost: res.Cost,
				Hidden:       res.Solution.Hidden.Sorted(),
				Checked:      res.Counters.Checked,
				Pruned:       res.Counters.Pruned,
				OraclePasses: res.Counters.OraclePasses,
			})
		}
	}

	// The derived workflow instances carry set requirements only, so the
	// cardinality variant of the exact solver (its attribute branch and
	// bound) is timed on the canonical abstract classes instead, anchored
	// to the brute-force cardinality optimum.
	for _, pc := range gen.ProblemClasses() {
		p := gen.Problem(pc.Cfg, 1)
		if p.Validate(secureview.Cardinality) != nil {
			continue
		}
		ref, err := secureview.BruteForceCard(p, 16)
		if err != nil {
			return nil, fmt.Errorf("scenario %s brute-force card: %w", pc.Name, err)
		}
		refCost := p.Cost(ref)
		sopts := solve.Options{Variant: secureview.Cardinality, NodeBudget: 1 << 22}
		res, best, err := timeSolve(reps, "exact", p, sopts)
		if err != nil {
			return nil, fmt.Errorf("scenario %s exact/card: %w", pc.Name, err)
		}
		if diff := res.Cost - refCost; diff > 1e-9*(1+refCost) || -diff > 1e-9*(1+refCost) {
			return nil, fmt.Errorf("scenario %s: exact card cost %g diverges from brute-force optimum %g",
				pc.Name, res.Cost, refCost)
		}
		results = append(results, benchResult{
			Name:    "scenario/" + pc.Name + "/exact",
			K:       len(p.UsefulAttributes(secureview.Cardinality)),
			NsPerOp: best.Nanoseconds(), Cost: res.Cost,
			Hidden: res.Solution.Hidden.Sorted(),
		})
	}
	return results, nil
}

// megaResults times the certified approximation tier on the mega problem
// classes — the regime the exact rows cannot enter. Each row's certificate
// is re-verified (cost ≤ Factor × LP) so the committed baseline can never
// contain an uncertified number; the Cost column is the achieved view cost
// and Checked doubles as the reduction size. Hidden sets are omitted: at
// hundreds of attributes they would dominate the JSON.
func megaResults(quick bool) ([]benchResult, error) {
	solvers := []string{"approx-setcover", "approx-labelcover", "portfolio"}
	var results []benchResult
	for _, pc := range gen.MegaProblemClasses() {
		p := gen.Problem(pc.Cfg, 1)
		k := len(p.UsefulAttributes(secureview.Set))
		for _, name := range solvers {
			s, ok := solve.Get(name)
			if !ok || s.Supports(p, secureview.Set) != nil {
				continue
			}
			if quick && name != "portfolio" {
				continue
			}
			start := time.Now()
			res, err := solve.Solve(context.Background(), name, p, solve.Options{Variant: secureview.Set})
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("mega %s %s: %w", pc.Name, name, err)
			}
			if !p.Feasible(res.Solution, secureview.Set) {
				return nil, fmt.Errorf("mega %s: %s solution infeasible", pc.Name, name)
			}
			if res.Bound.Factor <= 0 || res.Bound.LP <= 0 {
				return nil, fmt.Errorf("mega %s: %s returned no certificate", pc.Name, name)
			}
			if gap := solve.CertifiedGap(res); gap > 1e-6*(1+res.Cost) {
				return nil, fmt.Errorf("mega %s: %s cost %g breaks certificate %g×%g",
					pc.Name, name, res.Cost, res.Bound.Factor, res.Bound.LP)
			}
			results = append(results, benchResult{
				Name: "scenario/" + pc.Name + "/" + name, K: k,
				NsPerOp: d.Nanoseconds(), Cost: res.Cost,
				Checked: res.Counters.Checked,
			})
		}
	}
	return results, nil
}
