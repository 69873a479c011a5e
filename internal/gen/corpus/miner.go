package corpus

// The adversarial miner: a deterministic hill-climb over gen.Config space
// whose objective is the engine solver's single-worker safety-test count
// (Checked) on the derived set-constraint problem. Checked is a
// machine-independent proxy for engine runtime — it counts the candidates
// the pruned search could NOT eliminate, so climbing it finds instances
// that defeat the engine's cost-bound and domination pruning.
// Every evaluation also cross-checks the engine optimum against the exact
// solver; any cost disagreement is kept unconditionally as a bug
// reproducer.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// MineOptions tunes one mining run. The zero value is usable.
type MineOptions struct {
	// Steps is the number of mutation steps per seed class (default 40).
	Steps int
	// Seed drives the mutation stream; the same (Seed, Steps, Classes)
	// always mines the same candidates (default 1).
	Seed int64
	// MaxK caps the derived problem's useful-attribute count so every
	// candidate stays replayable by the exact tier and the differential
	// harness (default 14).
	MaxK int
	// PerEval bounds one candidate evaluation; candidates that blow the
	// budget are rejected, keeping the climb inside affordable space
	// (default 10s).
	PerEval time.Duration
	// Classes are the climb starting points (default gen.Classes()).
	Classes []gen.Class
	// MinChecked drops candidates below this objective from the result
	// (default 0: keep everything, including the seed-class baselines).
	MinChecked int
}

func (o MineOptions) withDefaults() MineOptions {
	if o.Steps <= 0 {
		o.Steps = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxK <= 0 {
		o.MaxK = 14
	}
	if o.PerEval <= 0 {
		o.PerEval = 10 * time.Second
	}
	if o.Classes == nil {
		o.Classes = gen.Classes()
	}
	return o
}

// Evaluate scores one (cfg, seed) candidate: it generates the instance,
// derives the set-constraint problem, runs the engine single-worker (the
// deterministic objective), and cross-checks the optimum against the exact
// solver. Errors mean "not a usable candidate" (infeasible at Γ, too
// large, engine-unsupported, over budget) — the climb just moves on.
func Evaluate(ctx context.Context, cfg gen.Config, seed int64, maxK int, timeout time.Duration) (Entry, error) {
	it, err := gen.New(cfg, seed)
	if err != nil {
		return Entry{}, err
	}
	p, err := it.Derive(secureview.Set)
	if err != nil {
		return Entry{}, err
	}
	k := len(p.UsefulAttributes(secureview.Set))
	if k == 0 || k > maxK {
		return Entry{}, fmt.Errorf("corpus: k=%d outside (0, %d]", k, maxK)
	}
	eng, ok := solve.Get("engine")
	if !ok {
		return Entry{}, fmt.Errorf("corpus: engine solver not registered")
	}
	if err := eng.Supports(p, secureview.Set); err != nil {
		return Entry{}, err
	}
	res, err := solve.Solve(ctx, "engine", p, solve.Options{
		Variant: secureview.Set, Workers: 1, Timeout: timeout,
	})
	if err != nil {
		return Entry{}, err
	}
	fp, err := it.Fingerprint()
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		ID:          fp[:12],
		Fingerprint: fp,
		Cfg:         it.Cfg,
		Seed:        seed,
		Checked:     res.Counters.Checked,
		K:           k,
	}
	ex, exErr := solve.Solve(ctx, "exact", p, solve.Options{
		Variant: secureview.Set, Timeout: timeout,
	})
	if exErr == nil {
		if d := res.Cost - ex.Cost; d > 1e-9 || d < -1e-9 {
			e.Disagree = true
			e.Notes = fmt.Sprintf("engine cost %g != exact cost %g", res.Cost, ex.Cost)
		}
	}
	return e, nil
}

// Mine hill-climbs each seed class for Steps mutations and returns the
// fingerprint-deduped candidates, hardest first: the seed-class baselines,
// every accepted improvement, and every disagreement reproducer
// (disagreements are kept even when they are not improvements). The run is
// deterministic in MineOptions — the objective counts safety tests, never
// wall-clock.
func Mine(ctx context.Context, opts MineOptions) ([]Entry, error) {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	var out []Entry
	for _, cl := range o.Classes {
		cfg, seed := cl.Cfg, int64(1)
		best := 0
		if cur, err := Evaluate(ctx, cfg, seed, o.MaxK, o.PerEval); err == nil {
			cur.Source = "seed:" + cl.Name
			out = append(out, cur)
			best = cur.Checked
			cfg = cur.Cfg // defaults filled in, so later mutations see real values
		}
		for step := 0; step < o.Steps; step++ {
			if err := ctx.Err(); err != nil {
				return finish(out, o.MinChecked), err
			}
			ncfg, nseed := mutate(cfg, seed, rng)
			cand, err := Evaluate(ctx, ncfg, nseed, o.MaxK, o.PerEval)
			if err != nil {
				continue
			}
			cand.Source = fmt.Sprintf("climb:%s/step%d", cl.Name, step)
			if cand.Disagree {
				out = append(out, cand)
			}
			if cand.Checked > best {
				best = cand.Checked
				cfg, seed = cand.Cfg, nseed
				if !cand.Disagree {
					out = append(out, cand)
				}
			}
		}
	}
	return finish(out, o.MinChecked), nil
}

// finish dedups, filters and orders a mining result (disagreements are
// exempt from the MinChecked filter).
func finish(entries []Entry, minChecked int) []Entry {
	entries = Dedup(entries)
	kept := entries[:0:0]
	for _, e := range entries {
		if e.Checked >= minChecked || e.Disagree {
			kept = append(kept, e)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Checked > kept[j].Checked })
	return kept
}

// mutate proposes one neighbouring configuration: a single knob nudged, or
// a re-seed. Pure function of the rng stream.
func mutate(cfg gen.Config, seed int64, rng *rand.Rand) (gen.Config, int64) {
	c, s := cfg, seed
	switch rng.Intn(12) {
	case 0:
		c.Modules = clamp(c.Modules+pm(rng), 2, 8)
	case 1:
		c.Layers = clamp(c.Layers+pm(rng), 1, 3)
	case 2:
		c.Width = clamp(c.Width+pm(rng), 1, 3)
	case 3:
		c.FanIn = clamp(c.FanIn+pm(rng), 1, 3)
	case 4:
		c.FanOut = clamp(c.FanOut+pm(rng), 1, 3)
	case 5:
		c.Domain = 2 + rng.Intn(2)
	case 6:
		c.Share = clamp(c.Share+pm(rng), 1, 4)
	case 7:
		c.Funcs = gen.FuncKind(rng.Intn(4))
	case 8:
		c.Costs = gen.CostModel(rng.Intn(3))
	case 9:
		c.Gamma = uint64(2 + rng.Intn(2))
	case 10:
		c.Topology = gen.Topology(rng.Intn(3))
	default:
		s = int64(rng.Intn(64))
	}
	return c, s
}

// pm draws ±1.
func pm(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
