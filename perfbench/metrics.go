package main

import (
	"math"
	"sort"
	"strings"
)

// Metric units. The names and units here are the ones BENCHMARK.json
// declares; the self-test checks the two agree.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"rss_peak_mb":    "MB",
}

// portfolioRacers are the registered solvers the portfolio races on
// set-variant instances.
var portfolioRacers = []string{"approx-labelcover", "approx-setcover", "engine", "exact", "greedy", "lp"}

// solveLayers are the solve spans reported one metric each.
var solveLayers = []string{"engine", "exact", "greedy", "lp", "portfolio", "batch"}

func perLayerUnits() map[string]string {
	u := map[string]string{
		"server.decode_ms":       "ms",
		"server.encode_ms":       "ms",
		"server.http_ms":         "ms",
		"server.rejected":        "count",
		"gen.resolve_ms":         "ms",
		"session.hit_ratio":      "ratio",
		"session.delta_ratio":    "ratio",
		"session.hit_ms":         "ms",
		"session.delta_ms":       "ms",
		"session.fingerprint_ms": "ms",
		"session.bytes":          "bytes",
		"session.evictions":      "count",
		"derive.ms":              "ms",
		"derive.options":         "count",
		"derive.share":           "ratio",
		"solve.engine_share":     "ratio",
		"search.checked":         "count",
		"search.pruned":          "count",
		"search.oracle_passes":   "count",
		"search.memo_hits":       "count",
		"search.us_per_check":    "us",
		"search.tested_ratio":    "ratio",
		"warm.hit_ratio":         "ratio",
		"warm.store_ms":          "ms",
		"warm.frontier_kb":       "KiB",
		"load.trace_overhead_ms": "ms",
	}
	for _, s := range solveLayers {
		u["solve."+s+"_ms"] = "ms"
	}
	for _, s := range portfolioRacers {
		u["portfolio.wins."+s] = "count"
	}
	return u
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// median is the middle value of xs, or the mean of the two middle values
// when there are an even number (0 when empty): over a window's ten or so
// slices it steps less than percentile's nearest rank does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		s, e := math.Max(x[0], cur), math.Min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUs, s.EndUs})
		}
	}
	out := make([]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[i] = s.dur() - covered(kids[i], s.StartUs, s.EndUs)
	}
	return out
}

// layerOf names the layer a span's self time belongs to; a Session miss is
// the derivation.
func layerOf(s *span) string {
	switch {
	case s.Name == "session.problem" && s.Outcome == "miss":
		return "derive"
	case s.Name == "request":
		return "benchmark"
	}
	return s.Name[:strings.IndexByte(s.Name, '.')]
}

// layerStats are the per-layer figures of one spans-on replay.
type layerStats struct {
	metrics map[string]float64
	// selfByLayer sums self time per layer over the timed requests.
	selfByLayer map[string]float64
}

func msOf(us []float64) float64 { return percentile(us, 50) / 1e3 }

// layerMetrics computes the per-layer metrics from the spans and results
// of a spans-on replay. Span figures cover every replayed request, the
// warm-up included, so a derivation only the warm-up performs is still
// timed; ratio and share figures cover the timed requests only.
func layerMetrics(run *replayRun) layerStats {
	by := make(map[string][]float64) // span key → self times (µs)
	selfByLayer := make(map[string]float64)
	var options, frontierKB []float64
	var warmLookups, warmHits float64
	var rootTimed, engineSelfTimed, deriveSelfTimed float64
	var engineSelf, engineChecked float64
	spans := run.tr.spans
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		key := s.Name
		if s.Name == "session.problem" {
			key += "." + s.Outcome
			options = append(options, float64(s.Options))
		}
		by[key] = append(by[key], self[i])
		switch s.Name {
		case "warm.store":
			frontierKB = append(frontierKB, float64(s.FrontierBytes)/1024)
		case "warm.lookup":
			if !s.Warmup {
				warmLookups++
				if s.Outcome == "hit" {
					warmHits++
				}
			}
		case "solve.engine":
			engineSelf += self[i]
			if s.Counters != nil {
				engineChecked += float64(s.Counters.Checked)
			}
		}
		if s.Warmup {
			continue
		}
		selfByLayer[layerOf(s)] += self[i]
		switch {
		case s.Name == "request":
			rootTimed += s.dur()
		case s.Name == "solve.engine":
			engineSelfTimed += self[i]
		case key == "session.problem.miss":
			deriveSelfTimed += self[i]
		}
	}

	m := map[string]float64{
		"server.decode_ms":       msOf(by["server.decode"]),
		"server.encode_ms":       msOf(by["server.encode"]),
		"gen.resolve_ms":         msOf(by["gen.resolve"]),
		"session.hit_ms":         msOf(by["session.problem.hit"]),
		"session.delta_ms":       msOf(by["session.problem.delta"]),
		"session.fingerprint_ms": msOf(by["session.fingerprint"]),
		"derive.ms":              msOf(by["session.problem.miss"]),
		"derive.options":         percentile(options, 50),
		"derive.share":           ratio(deriveSelfTimed, rootTimed),
		"solve.engine_share":     ratio(engineSelfTimed, rootTimed),
		"warm.hit_ratio":         ratio(warmHits, warmLookups),
		"warm.store_ms":          msOf(by["warm.store"]),
		"warm.frontier_kb":       percentile(frontierKB, 50),
	}
	for _, s := range solveLayers {
		m["solve."+s+"_ms"] = msOf(by["solve."+s])
	}

	var checked, pruned, passes, memo float64
	for _, s := range portfolioRacers {
		m["portfolio.wins."+s] = 0
	}
	for _, rr := range run.reqs {
		for i, res := range rr.results {
			if rr.errs[i] != nil && !res.Partial {
				continue
			}
			if racer, ok := strings.CutPrefix(res.Solver, "portfolio/"); ok {
				m["portfolio.wins."+racer]++
			}
			if res.Solver == "engine" || res.Solver == "portfolio/engine" {
				checked += float64(res.Counters.Checked)
				pruned += float64(res.Counters.Pruned)
				passes += float64(res.Counters.OraclePasses)
				memo += float64(res.Counters.MemoHits)
			}
		}
	}
	m["search.checked"], m["search.pruned"] = checked, pruned
	m["search.oracle_passes"], m["search.memo_hits"] = passes, memo
	m["search.tested_ratio"] = ratio(checked, checked+pruned)
	// Only top-level engine solves have their own span, so the per-check
	// cost divides their time by their checks alone.
	m["search.us_per_check"] = ratio(engineSelf, engineChecked)

	st0, st1 := run.afterWarmup, run.atEnd
	lookups := float64(st1.Hits - st0.Hits + st1.Misses - st0.Misses)
	m["session.hit_ratio"] = ratio(float64(st1.Hits-st0.Hits), lookups)
	m["session.delta_ratio"] = ratio(float64(st1.DeltaDerives-st0.DeltaDerives), lookups)
	m["session.bytes"] = float64(st1.Bytes)
	m["session.evictions"] = float64(st1.Evictions)
	return layerStats{metrics: m, selfByLayer: selfByLayer}
}
