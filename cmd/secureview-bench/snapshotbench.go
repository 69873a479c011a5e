package main

// Snapshot rows: what session snapshot/restore buys on the first solve
// after a process start. For each standard benchmark instance the sweep
// measures the first end-to-end solve (derive + exact solve) on a cold
// session versus a session restored from a snapshot of a previous
// process's hot state (the derived problem) — the restored path answers
// derivation from the cache, as a Session hit with no miss. Both paths must
// return the same optimum; in full mode the restored first solve must beat
// cold by at least minRestoredSpeedup, so a committed baseline can never
// claim a restore that does not pay.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"secureview/internal/exp"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// minRestoredSpeedup is the floor on cold/restored first-solve latency.
// Restore skips the derivation sweep entirely. With the exact solver behind
// both paths, four full sweeps on a 2-CPU x86-64 host read a median 5.6×
// at k=14 (5.4–6.6×), 7.9× at k=16 and 16× at k=18: 5× holds at every k
// the gate compares, with little margin at k=14. Quick mode's sweep skips the
// check (k=12 cold solves are small enough for scheduler noise to matter)
// but the -benchgate ratio check enforces it at every k the gate run
// measures.
const minRestoredSpeedup = 5.0

// speedupPairs is the least number of paired (cold, restored) first solves
// per k. The floor applies to the median of their cold/restored ratios:
// one sample per side, a few milliseconds each at k=14, read under 5× now
// and then on a shared 2-CPU host whatever the code did.
const speedupPairs = 5

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
		var ratios []float64
		for i := 0; i < max(reps, speedupPairs); i++ {
			sess := solve.NewSession()
			start := time.Now()
			p2, err := sess.Problem(ctx, w, secureview.Set, gamma, costs, nil)
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: cold derive: %w", k, err)
			}
			res, err := solve.Solve(ctx, "exact", p2, opts)
			cold := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("snapshot k=%d: cold solve: %w", k, err)
			}
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
			ratios = append(ratios, float64(cold)/float64(d))
		}
		speedup := median(ratios)
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
		if !quick && speedup < minRestoredSpeedup {
			return nil, fmt.Errorf("snapshot k=%d: restored first solve is a median %.1fx faster than cold over %d pairs, under the %gx floor",
				k, speedup, len(ratios), minRestoredSpeedup)
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
				Checked: restoredRes.Counters.Nodes,
				Speedup: speedup,
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
