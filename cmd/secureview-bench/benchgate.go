package main

// The -benchgate mode is the CI perf gate: it re-measures the benchmark
// sweep (quick mode in CI) and compares the perf-gated rows against the
// committed BENCH_results.json baseline. Raw nanoseconds are never compared
// across machines directly — the gate first derives a machine-speed factor
// as the median current/baseline ratio over the NON-gated rows, then fails
// only when a gated row exceeds its calibrated baseline by more than
// gateTolerance. Commits tagged [skip-perf] skip the gate in CI.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// gateTolerance is the allowed calibrated slowdown on a gated row: 35%
// over baseline × machine factor. Wide enough to absorb shared-runner
// noise on top of the median calibration, tight enough to catch a real
// regression of the optimized paths.
const gateTolerance = 0.35

// gateGraceNs is an absolute grace on top of the relative tolerance:
// sub-millisecond rows jitter by whole scheduler quanta, so a percentage
// alone would flag noise. Half a millisecond is invisible at the scale a
// real hot-path regression shows (the gated rows' baselines are ms-range
// where it matters).
const gateGraceNs = 500_000

// gateReps makes the gate's re-measurement a best-of-N even in quick mode;
// a single cold run is dominated by warmup and GC pauses.
const gateReps = 3

// gatedRow reports whether a benchmark row guards the optimized hot paths:
// the compiled standalone search, the engine solver scenario rows, the
// restored-start first solve (the snapshot tier's whole point is that a
// restart does not pay the cold derivation again), and the serving-path
// mixed-workload p50.
//
// The restored first solve is gated as a SAME-RUN ratio against its cold
// sibling: the median cold/restored ratio of paired runs (see
// minRestoredSpeedup and speedupPairs), rather than against the calibrated
// baseline: the calibration factor comes from small-k rows whose full-mode
// baseline measurements carry the heap state of the heavy k=18 sweeps in
// the same process, a bias the ~10ms restored row does not share, so an
// absolute comparison flags calibration skew instead of regressions. The
// ratio is the invariant the row exists to pin — a restart must not pay
// the cold derivation again — and is immune to machine speed by
// construction. It still appears here so calibration excludes it and a
// rename cannot silently drop it from the gate.
func gatedRow(name string) bool {
	return name == "standalone-search/engine-compiled" ||
		name == "snapshot/first-solve/restored" ||
		name == "loadgen/mixed" ||
		(strings.HasPrefix(name, "scenario/") && strings.HasSuffix(name, "/engine"))
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (m + xs[len(xs)/2-1]) / 2
	}
	return m
}

// rowKey identifies a row across runs; quick mode measures a subset of the
// baseline's (name, k) pairs and the gate compares only the intersection.
func rowKey(r benchResult) string { return fmt.Sprintf("%s/k=%d", r.Name, r.K) }

// runBenchGate measures the current tree and gates it against the baseline
// file. A missing or never-measured gated row is skipped (quick mode does
// not reach every k); having NO comparable gated row at all is an error so
// a renamed row cannot silently disable the gate.
func runBenchGate(baselinePath string, quick bool) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	var baseline []benchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("benchgate: parsing %s: %w", baselinePath, err)
	}
	base := make(map[string]benchResult, len(baseline))
	for _, r := range baseline {
		base[rowKey(r)] = r
	}

	current, err := collectBenchResults(quick, gateReps)
	if err != nil {
		return fmt.Errorf("benchgate: measuring current tree: %w", err)
	}

	// Machine-speed calibration over the non-gated rows shared with the
	// baseline. With no shared rows the factor stays 1 (same-machine
	// comparison is then assumed).
	var ratios []float64
	for _, cur := range current {
		b, ok := base[rowKey(cur)]
		if !ok || gatedRow(cur.Name) || cur.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		ratios = append(ratios, float64(cur.NsPerOp)/float64(b.NsPerOp))
	}
	factor := 1.0
	if len(ratios) > 0 {
		factor = median(ratios)
	}
	fmt.Printf("benchgate: calibrated over %d shared rows, machine factor %.3f\n", len(ratios), factor)

	curByKey := make(map[string]benchResult, len(current))
	for _, c := range current {
		curByKey[rowKey(c)] = c
	}

	compared := 0
	var failures []string
	for _, cur := range current {
		if !gatedRow(cur.Name) {
			continue
		}
		b, ok := base[rowKey(cur)]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if cur.Name == "snapshot/first-solve/restored" {
			cold, ok := curByKey[fmt.Sprintf("snapshot/first-solve/cold/k=%d", cur.K)]
			if !ok || cur.Speedup <= 0 {
				continue
			}
			compared++
			status := "ok"
			if cur.Speedup < minRestoredSpeedup {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: restored first solves are a median %.1fx faster than cold over paired runs (floor %gx)",
					rowKey(cur), cur.Speedup, minRestoredSpeedup))
			}
			fmt.Printf("benchgate: %-50s %12d ns  cold %12d ns (median paired %.1fx, floor %gx)  [%s]\n",
				rowKey(cur), cur.NsPerOp, cold.NsPerOp, cur.Speedup, minRestoredSpeedup, status)
			continue
		}
		compared++
		allowed := float64(b.NsPerOp)*factor*(1+gateTolerance) + gateGraceNs
		status := "ok"
		if float64(cur.NsPerOp) > allowed {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %d ns vs baseline %d ns (allowed %.0f)",
				rowKey(cur), cur.NsPerOp, b.NsPerOp, allowed))
		}
		fmt.Printf("benchgate: %-50s %12d ns  baseline %12d ns  [%s]\n",
			rowKey(cur), cur.NsPerOp, b.NsPerOp, status)
	}
	if compared == 0 {
		return fmt.Errorf("benchgate: no gated row of the current run exists in %s — gate cannot function", baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchgate: %d gated row(s) regressed beyond %d%%:\n  %s",
			len(failures), int(gateTolerance*100), strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchgate: %d gated rows within tolerance\n", compared)
	return nil
}
