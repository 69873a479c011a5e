package main

// Snapshot rows: what session snapshot/restore buys on the first solve
// after a process start. For each standard benchmark instance the sweep
// measures the first end-to-end solve (derive + exact solve) on a cold
// session versus a session restored from a snapshot of a previous
// process's hot state (the derived problem) — the restored path answers
// derivation from the cache, as a Session hit with no miss. Both paths must
// return the same optimum; in full mode the restored first solve must also
// cost no more than the cold side's solve alone (restoredFloor), so a
// committed baseline can never claim a restore that pays for derivation.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"secureview/internal/exp"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// firstSolvePairs is the least number of paired (cold, restored) first
// solves per k; restoredFloor compares their medians.
const firstSolvePairs = 5

// restoredFloor checks a restored first solve against its cold sibling
// with the derivation taken out: over the pairs, the median restored first
// solve (a Session hit plus the exact solve) may take at most what any
// gated row may take over its reference (allowedNs), the reference being
// the median cold solve timed apart from its derivation. So a faster
// derivation moves neither side, while a restore that derives again fails.
// It returns the limit and whether the restored median is within it.
func restoredFloor(restoredNs, coldSolveNs int64) (allowed float64, ok bool) {
	allowed = allowedNs(float64(coldSolveNs))
	return allowed, float64(restoredNs) <= allowed
}

func snapshotResults(quick bool, repsOverride int) ([]benchResult, error) {
	ks := []int{14, 16, 18}
	reps := 3
	if quick {
		ks = []int{12, 14}
		reps = 1
	}
	if repsOverride > 0 {
		reps = repsOverride
	}
	ctx := context.Background()
	opts := solve.Options{Variant: secureview.Set}

	var results []benchResult
	for _, k := range ks {
		w, costs, gamma := exp.SearchBenchWorkflow(k)

		// A previous process's hot state: derive and solve.
		src := solve.NewSession()
		p, err := src.Problem(ctx, w, secureview.Set, gamma, costs, nil)
		if err != nil {
			return nil, fmt.Errorf("snapshot k=%d: derive: %w", k, err)
		}
		if _, err := solve.Solve(ctx, "exact", p, opts); err != nil {
			return nil, fmt.Errorf("snapshot k=%d: base solve: %w", k, err)
		}
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			return nil, fmt.Errorf("snapshot k=%d: %w", k, err)
		}
		snap := buf.Bytes()

		coldBest := time.Duration(1 << 62)
		restoreBest := time.Duration(1 << 62)
		restoredBest := time.Duration(1 << 62)
		var coldRes, restoredRes solve.Result
		var entries int
		var coldSolves, restoreds []float64
		for i := 0; i < max(reps, firstSolvePairs); i++ {
			sess := solve.NewSession()
			start := time.Now()
			p2, err := sess.Problem(ctx, w, secureview.Set, gamma, costs, nil)
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: cold derive: %w", k, err)
			}
			derived := time.Now()
			res, err := solve.Solve(ctx, "exact", p2, opts)
			solved := time.Now()
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: cold solve: %w", k, err)
			}
			cold := solved.Sub(start)
			coldSolves = append(coldSolves, float64(solved.Sub(derived)))
			if cold < coldBest {
				coldBest = cold
				coldRes = res
			}

			rstart := time.Now()
			sess, n, err := solve.RestoreSession(bytes.NewReader(snap), 0)
			rd := time.Since(rstart)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("snapshot k=%d: restore returned (%d, %v)", k, n, err)
			}
			entries = n
			if rd < restoreBest {
				restoreBest = rd
			}
			start = time.Now()
			p2, err = sess.Problem(ctx, w, secureview.Set, gamma, costs, nil)
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: restored derive: %w", k, err)
			}
			res, err = solve.Solve(ctx, "exact", p2, opts)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: restored solve: %w", k, err)
			}
			if st := sess.Stats(); st.Hits != 1 || st.Misses != 0 {
				return nil, fmt.Errorf("snapshot k=%d: restored derive was not a Session hit (hits %d, misses %d)",
					k, st.Hits, st.Misses)
			}
			if d < restoredBest {
				restoredBest = d
				restoredRes = res
			}
			restoreds = append(restoreds, float64(d))
		}
		restoredMedian, coldSolveMedian := int64(median(restoreds)), int64(median(coldSolves))
		// Optima must agree exactly: both sides price the same hidden set of
		// the same problem, and Costs.Sum adds in sorted name order.
		if !restoredRes.Solution.Hidden.Equal(coldRes.Solution.Hidden) {
			return nil, fmt.Errorf("snapshot k=%d: restored optimum %v diverges from cold %v",
				k, restoredRes.Solution.Hidden.Sorted(), coldRes.Solution.Hidden.Sorted())
		}
		if restoredRes.Cost != coldRes.Cost {
			return nil, fmt.Errorf("snapshot k=%d: restored cost %v diverges from cold %v",
				k, restoredRes.Cost, coldRes.Cost)
		}
		if allowed, ok := restoredFloor(restoredMedian, coldSolveMedian); !quick && !ok {
			return nil, fmt.Errorf("snapshot k=%d: restored first solves take a median %d ns over %d pairs, above the %.0f ns a cold solve of %d ns allows",
				k, restoredMedian, len(restoreds), allowed, coldSolveMedian)
		}

		// Checked records the exact solver's search nodes.
		results = append(results,
			benchResult{
				Name: "snapshot/first-solve/cold", K: k, Gamma: gamma,
				NsPerOp: coldBest.Nanoseconds(), Cost: coldRes.Cost,
				Checked: coldRes.Counters.Nodes,
			},
			benchResult{
				Name: "snapshot/first-solve/restored", K: k, Gamma: gamma,
				NsPerOp: restoredBest.Nanoseconds(), Cost: restoredRes.Cost,
				Checked:  restoredRes.Counters.Nodes,
				MedianNs: restoredMedian, ColdSolveNs: coldSolveMedian,
			},
			// Checked doubles as the restored entry count; Cost as snapshot KiB.
			benchResult{
				Name: "snapshot/restore", K: k, Gamma: gamma,
				NsPerOp: restoreBest.Nanoseconds(),
				Checked: entries, Cost: float64(len(snap)) / 1024,
			},
		)
	}
	return results, nil
}
