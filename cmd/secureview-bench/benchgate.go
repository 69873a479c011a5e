package main

// The -benchgate mode is the CI perf gate: it re-measures the benchmark
// sweep (quick mode in CI) and compares the perf-gated rows against the
// committed BENCH_results.json baseline. Raw nanoseconds are never compared
// across machines directly — the gate first derives machine-speed factors
// as the median current/baseline ratio over the NON-gated rows, one for the
// rows under calibSplitNs and one for the rest, then fails only when a
// gated row exceeds its baseline, calibrated by the factor of its own side
// of calibSplitNs, by more than gateTolerance. Commits tagged [skip-perf]
// skip the gate in CI.

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

// gateGraceNs caps an absolute grace on top of the relative tolerance:
// sub-millisecond rows jitter by whole scheduler quanta, so a percentage
// alone would flag noise. A row's grace is the smaller of half a
// millisecond and its own calibrated baseline, so a row of tens of
// microseconds fails at 2.35× its baseline rather than at 6–35×, and a row
// of half a millisecond or more gets the whole grace.
const gateGraceNs = 500_000

// calibSplitNs splits calibration by row length: a gated row is calibrated
// by the non-gated rows on its own side. The sub-millisecond rows, most of
// them timed back to back in one short stretch of the sweep, run up to
// twice as fast or as slow together as a shared host's cache pressure comes
// and goes; the rows of a millisecond or more are timed across the whole
// sweep. Over 15 quick gates on one 2-vCPU host the median over every row
// read 0.65–1.08 and over the rows of 1 ms or more 0.80–1.04; the served
// rows did not follow the former, which failed them in 4 of those runs.
const calibSplitNs = 1_000_000

// gateReps makes the gate's re-measurement a best-of-N even in quick mode;
// a single cold run is dominated by warmup and GC pauses.
const gateReps = 3

// gatedRow reports whether a benchmark row guards the optimized hot paths:
// the compiled standalone search, the engine solver scenario rows, the
// restored-start first solve (the snapshot tier's whole point is that a
// restart does not pay the cold derivation again), and the served rows
// (servedbench.go), which time what a /v1/solve caller experiences.
//
// The restored first solve is gated against its cold sibling in the SAME
// run (restoredFloor over paired runs), rather than against the calibrated
// baseline: the calibration factor comes from small-k rows whose full-mode
// baseline measurements carry the heap state of the heavy k=18 sweeps in
// the same process, a bias the restored row does not share, so an absolute
// comparison flags calibration skew instead of regressions. The floor pins
// the invariant the row exists for — a restart must not pay the cold
// derivation again — and is immune to machine speed by construction. The
// row still appears here so calibration excludes it and a rename cannot
// silently drop it from the gate.
func gatedRow(name string) bool {
	return name == "standalone-search/engine-compiled" ||
		name == "snapshot/first-solve/restored" ||
		strings.HasPrefix(name, "served/") ||
		(strings.HasPrefix(name, "scenario/") && strings.HasSuffix(name, "/engine"))
}

// allowedNs is the most a gated row may take against a reference of refNs
// on the same machine: the relative tolerance plus the capped grace.
func allowedNs(refNs float64) float64 {
	return refNs*(1+gateTolerance) + min(gateGraceNs, refNs)
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
	// baseline, keyed by whether the baseline reaches calibSplitNs. A side
	// with no shared rows keeps factor 1 (same-machine comparison is then
	// assumed).
	ratios := make(map[bool][]float64)
	for _, cur := range current {
		b, ok := base[rowKey(cur)]
		if !ok || gatedRow(cur.Name) || cur.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		long := b.NsPerOp >= calibSplitNs
		ratios[long] = append(ratios[long], float64(cur.NsPerOp)/float64(b.NsPerOp))
	}
	factors := map[bool]float64{false: 1, true: 1}
	for long, rs := range ratios {
		factors[long] = median(rs)
	}
	fmt.Printf("benchgate: calibrated over %d shared rows under 1 ms, machine factor %.3f, and %d of 1 ms or more, factor %.3f\n",
		len(ratios[false]), factors[false], len(ratios[true]), factors[true])

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
			if cur.MedianNs <= 0 || cur.ColdSolveNs <= 0 {
				continue
			}
			compared++
			allowed, ok := restoredFloor(cur.MedianNs, cur.ColdSolveNs)
			status := "ok"
			if !ok {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: restored first solves take a median %d ns over paired runs, above the %.0f ns their cold solves' median %d ns allows",
					rowKey(cur), cur.MedianNs, allowed, cur.ColdSolveNs))
			}
			fmt.Printf("benchgate: %-50s %12d ns  cold solve %12d ns (medians, allowed %.0f)  [%s]\n",
				rowKey(cur), cur.MedianNs, cur.ColdSolveNs, allowed, status)
			continue
		}
		compared++
		calibrated := float64(b.NsPerOp) * factors[b.NsPerOp >= calibSplitNs]
		allowed := allowedNs(calibrated)
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
