// Package diff is the cross-solver differential harness over generated
// Secure-View instances (internal/gen): it runs every applicable solver on
// each instance — through the internal/solve registry — and checks the
// invariants the paper's theorems promise:
//
//   - the exact solver, the pruned parallel engine and (for cardinality
//     instances of at most ExactCardAttrs useful attributes) a brute-force
//     enumeration agree on the optimal cost, and the set-variant exact
//     solver and the engine on the hidden set too, since both break ties
//     by the same (cost, lex) order;
//   - Greedy and LP-rounded solutions are always feasible, never cheaper
//     than the optimum, and within the paper's approximation bounds —
//     Multiplicity()×OPT for greedy on all-private instances (Theorem 7)
//     and ℓmax×LP for the set-constraint rounding (Theorem 6 / B.5.1);
//   - the LP optimum lower-bounds OPT (it is a relaxation);
//   - the compiled integer-coded oracle agrees with the interpreted
//     Lemma 4 semantics on EVERY subset of every generated module;
//   - layer agreement: the bitmask-compiled problem the engine solver
//     searches (secureview.Compiled) agrees with Problem.Feasible on every
//     mask of small universes, and the engine over it reproduces the
//     Problem.Feasible-oracle engine bit for bit — optimum and counters
//     (see checkLayers);
//   - on instances small enough to enumerate, the assembled solution is
//     Γ-workflow-private under exhaustive possible-world semantics
//     (Theorems 4/8), and the worlds-grounded optimum never costs more
//     than the assembly optimum.
//
// Exact solvers that exhaust their budgets must say so with the typed
// secureview.ErrNodeBudget (or report a genuinely infeasible derivation
// with secureview.ErrInfeasible): those are counted as skips, as is
// context cancellation of a ...Ctx run (a torn-down harness returns a
// clean, incomplete Result), while any other failure is a violation — a
// harness that silently skips on arbitrary errors verifies nothing.
//
// Any violated invariant lands in Result.Violations; a run over generated
// corpora must come back with zero.
package diff

import (
	"context"
	"errors"
	"fmt"

	"secureview/internal/gen"
	"secureview/internal/oracle"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/worlds"
)

// Options tunes the harness.
type Options struct {
	// RoundSeed seeds the randomized cardinality LP rounding (default 1).
	RoundSeed int64
	// ExactNodes is the exact solver's node budget for both variants
	// (default 1<<22; see solve.Options.NodeBudget).
	ExactNodes int
	// ExactCardAttrs caps the brute-force cardinality reference
	// (default 16).
	ExactCardAttrs int
	// WorldsAttrLimit gates exhaustive possible-world verification: it runs
	// only when the workflow has at most this many attributes (default 11).
	WorldsAttrLimit int
	// WorldsBudget caps each worlds enumeration (default 1<<22).
	WorldsBudget uint64
	// Search tunes the engine runs (worker-pool size).
	Search search.Options
	// Session, when non-nil, shares derived problems across instances and
	// harness runs (nil runs a private session per instance).
	Session *solve.Session
}

func (o Options) withDefaults() Options {
	if o.RoundSeed == 0 {
		o.RoundSeed = 1
	}
	if o.ExactNodes == 0 {
		o.ExactNodes = 1 << 22
	}
	if o.ExactCardAttrs == 0 {
		o.ExactCardAttrs = 16
	}
	if o.WorldsAttrLimit == 0 {
		o.WorldsAttrLimit = 11
	}
	if o.WorldsBudget == 0 {
		o.WorldsBudget = 1 << 22
	}
	return o
}

// solveOptions maps harness knobs onto the registry's uniform Options.
func (o Options) solveOptions(v secureview.Variant) solve.Options {
	return solve.Options{
		Variant:    v,
		NodeBudget: o.ExactNodes,
		Workers:    o.Search.Parallelism,
		Seed:       o.RoundSeed,
		Trials:     5,
	}
}

// Result aggregates what a harness run did and every invariant it saw
// violated. Results from many instances are combined with Merge.
type Result struct {
	// Instances counts instances examined; Exact counts those where at
	// least one exact optimum was computed (the anchor for ratio checks).
	Instances, Exact int
	// SolverRuns counts individual solver invocations.
	SolverRuns int
	// OracleMasks counts compiled-vs-interpreted subsets compared.
	OracleMasks int
	// CompiledMasks counts masks on which Compiled.Feasible was compared
	// with Problem.Feasible.
	CompiledMasks int
	// ExactPinned counts set-variant problems whose exact optimum matched
	// the (cost, lex) reference bit for bit: the single-worker engine, or
	// a brute force where the engine does not apply.
	ExactPinned int
	// WorldsVerified counts instances whose solution survived exhaustive
	// possible-world verification.
	WorldsVerified int
	// Skips counts checks skipped because an instance was infeasible at Γ,
	// too large for an exact solver, or too large to enumerate worlds.
	Skips int
	// MaxGreedyRatio / MaxLPRatio track the worst observed approximation
	// ratios (cost / exact optimum).
	MaxGreedyRatio, MaxLPRatio float64
	// Violations describes every failed invariant.
	Violations []string
}

// Merge combines results.
func Merge(rs ...Result) Result {
	var out Result
	for _, r := range rs {
		out.Instances += r.Instances
		out.Exact += r.Exact
		out.SolverRuns += r.SolverRuns
		out.OracleMasks += r.OracleMasks
		out.CompiledMasks += r.CompiledMasks
		out.ExactPinned += r.ExactPinned
		out.WorldsVerified += r.WorldsVerified
		out.Skips += r.Skips
		if r.MaxGreedyRatio > out.MaxGreedyRatio {
			out.MaxGreedyRatio = r.MaxGreedyRatio
		}
		if r.MaxLPRatio > out.MaxLPRatio {
			out.MaxLPRatio = r.MaxLPRatio
		}
		out.Violations = append(out.Violations, r.Violations...)
	}
	return out
}

func (r *Result) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// cancelled reports a context-cancellation error: a caller tearing the
// harness down mid-run must get a clean (if incomplete) Result, not
// spurious violations.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// skipOrViolate classifies a solver error: typed budget exhaustion and
// context cancellation are legitimate skips, anything else is a harness
// violation.
func (r *Result) skipOrViolate(name, what string, err error) {
	if errors.Is(err, secureview.ErrNodeBudget) || cancelled(err) {
		r.Skips++
		return
	}
	r.violatef("%s: %s failed with a non-budget error: %v", name, what, err)
}

// eps returns an absolute tolerance scaled to the magnitude of float cost
// comparisons.
func eps(x float64) float64 { return 1e-6 * (1 + x) }

// CheckProblem runs the full solver matrix on an abstract instance (both
// constraint variants) and returns the differential result. The name tags
// violations. It is CheckProblemCtx without cancellation.
func CheckProblem(name string, p *secureview.Problem, opts Options) Result {
	return CheckProblemCtx(context.Background(), name, p, opts)
}

// CheckProblemCtx runs the solver matrix through the internal/solve
// registry with the given context, which every solver observes within one
// pruning epoch.
func CheckProblemCtx(ctx context.Context, name string, p *secureview.Problem, opts Options) Result {
	opts = opts.withDefaults()
	var r Result
	r.Instances = 1
	exactAnchored := false

	allPrivate := true
	for _, m := range p.Modules {
		if m.Public {
			allPrivate = false
		}
	}
	mult := p.Multiplicity()

	// --- set variant ---
	if err := p.Validate(secureview.Set); err == nil {
		r.checkLayers(ctx, name+"/set", p, secureview.Set)
		exact, err := solve.Solve(ctx, "exact", p, opts.solveOptions(secureview.Set))
		r.SolverRuns++
		if err != nil {
			r.skipOrViolate(name, "exact set solver", err)
		} else {
			exactAnchored = true
			if !p.Feasible(exact.Solution, secureview.Set) {
				r.violatef("%s: exact set solution infeasible", name)
			}
			r.checkEngine(ctx, name+"/set", p, secureview.Set, exact.Cost, opts)
			r.checkHeuristics(ctx, name+"/set", p, secureview.Set, exact.Cost, allPrivate, mult, opts)
		}
	}

	// --- cardinality variant ---
	if err := p.Validate(secureview.Cardinality); err == nil {
		r.checkLayers(ctx, name+"/card", p, secureview.Cardinality)
		exact, err := solve.Solve(ctx, "exact", p, opts.solveOptions(secureview.Cardinality))
		r.SolverRuns++
		if err != nil {
			r.skipOrViolate(name, "exact card solver", err)
		} else if r.checkCardReferences(ctx, name, p, exact, opts) {
			exactAnchored = true
			r.checkHeuristics(ctx, name+"/card", p, secureview.Cardinality, exact.Cost, allPrivate, mult, opts)
		}
	}

	if exactAnchored {
		r.Exact = 1
	}
	return r
}

// checkCardReferences checks the exact cardinality optimum against the
// independent references that apply: the brute-force enumeration when the
// instance has at most ExactCardAttrs useful attributes, and the engine
// solver when the instance is in its capability envelope. It reports
// whether either applied; an optimum no reference checked anchors nothing
// and counts as a skip.
func (r *Result) checkCardReferences(ctx context.Context, name string, p *secureview.Problem,
	exact solve.Result, opts Options) bool {
	if !p.Feasible(exact.Solution, secureview.Cardinality) {
		r.violatef("%s: exact card solution infeasible", name)
	}
	checked := false
	if len(p.UsefulAttributes(secureview.Cardinality)) <= opts.ExactCardAttrs {
		checked = true
		ref, err := secureview.BruteForceCard(p, opts.ExactCardAttrs)
		r.SolverRuns++
		if err != nil {
			r.violatef("%s: brute-force card reference failed: %v", name, err)
		} else if c := p.Cost(ref); exact.Cost-c > eps(c) || c-exact.Cost > eps(c) {
			r.violatef("%s: exact card cost %g != brute-force cost %g", name, exact.Cost, c)
		}
	}
	if r.checkEngine(ctx, name+"/card", p, secureview.Cardinality, exact.Cost, opts) {
		checked = true
	}
	if !checked {
		r.Skips++
	}
	return checked
}

// checkEngine cross-checks the subset-search engine solver against the
// exact optimum whenever the instance is in its capability envelope
// (all-private, universe within the mask width), and reports whether it
// did.
func (r *Result) checkEngine(ctx context.Context, name string, p *secureview.Problem,
	variant secureview.Variant, optCost float64, opts Options) bool {
	eng, ok := solve.Get("engine")
	if !ok || eng.Supports(p, variant) != nil {
		return false
	}
	res, err := solve.Solve(ctx, "engine", p, opts.solveOptions(variant))
	r.SolverRuns++
	if err != nil {
		if cancelled(err) {
			r.Skips++
			return false
		}
		r.violatef("%s: engine solver failed: %v", name, err)
		return true
	}
	if !p.Feasible(res.Solution, variant) {
		r.violatef("%s: engine solution infeasible", name)
	}
	if dx := res.Cost - optCost; dx > eps(optCost) || -dx > eps(optCost) {
		r.violatef("%s: engine cost %g != exact optimum %g", name, res.Cost, optCost)
	}
	return true
}

// checkHeuristics runs Greedy and the variant's LP rounding against the
// exact optimum and records feasibility, ordering and approximation-bound
// violations on r.
func (r *Result) checkHeuristics(ctx context.Context, name string, p *secureview.Problem,
	variant secureview.Variant, optCost float64, allPrivate bool, mult int, opts Options) {
	greedy, err := solve.Solve(ctx, "greedy", p, opts.solveOptions(variant))
	r.SolverRuns++
	if err != nil {
		if cancelled(err) {
			r.Skips++
			return
		}
		r.violatef("%s: greedy solver failed: %v", name, err)
		return
	}
	gc := greedy.Cost
	if !p.Feasible(greedy.Solution, variant) {
		r.violatef("%s: greedy solution infeasible", name)
	}
	if gc < optCost-eps(optCost) {
		r.violatef("%s: greedy cost %g below optimum %g", name, gc, optCost)
	}
	if allPrivate && mult > 0 && gc > float64(mult)*optCost+eps(gc) {
		r.violatef("%s: greedy cost %g exceeds Theorem 7 bound %d×%g", name, gc, mult, optCost)
	}
	if greedy.Bound.Factor > 0 && optCost > 0 && gc > greedy.Bound.Factor*optCost+eps(gc) {
		r.violatef("%s: greedy cost %g exceeds its own certificate %g×%g (%s)",
			name, gc, greedy.Bound.Factor, optCost, greedy.Bound.Theorem)
	}
	if optCost > 0 && gc/optCost > r.MaxGreedyRatio {
		r.MaxGreedyRatio = gc / optCost
	}

	rounded, err := solve.Solve(ctx, "lp", p, opts.solveOptions(variant))
	r.SolverRuns++
	if err != nil {
		if cancelled(err) {
			r.Skips++
			return
		}
		r.violatef("%s: LP rounding failed: %v", name, err)
		return
	}
	rc, lpVal := rounded.Cost, rounded.Bound.LP
	if !p.Feasible(rounded.Solution, variant) {
		r.violatef("%s: LP-rounded solution infeasible", name)
	}
	if rc < optCost-eps(optCost) {
		r.violatef("%s: LP-rounded cost %g below optimum %g", name, rc, optCost)
	}
	if lpVal > optCost+eps(optCost) {
		r.violatef("%s: LP value %g exceeds optimum %g (not a relaxation?)", name, lpVal, optCost)
	}
	if variant == secureview.Set {
		if lmax := rounded.Bound.Factor; lmax > 0 && rc > lmax*lpVal+eps(rc) {
			r.violatef("%s: rounded cost %g exceeds ℓmax bound %g×%g", name, rc, lmax, lpVal)
		}
	}
	if optCost > 0 && rc/optCost > r.MaxLPRatio {
		r.MaxLPRatio = rc / optCost
	}
}

// CheckMega runs the certified-approximation matrix on a mega-scale
// abstract instance. It is CheckMegaCtx without cancellation.
func CheckMega(name string, p *secureview.Problem, opts Options) Result {
	return CheckMegaCtx(context.Background(), name, p, opts)
}

// CheckMegaCtx verifies the approximation tier in the regime exact search
// cannot anchor: for each variant it first confirms the exact solver
// either finishes (small instances remain legal inputs) or declines with
// the typed budget error, then runs every certified approximation solver
// plus the portfolio and checks that each result is feasible and that its
// certificate holds arithmetically — cost ≤ Bound.Factor × Bound.LP with
// a strictly positive lower bound. The certificates are LP-relative by
// construction, so this is checkable even when no exact optimum will ever
// be known; when exact does finish, the optimum additionally sandwiches
// every result from below and Bound.LP from above.
func CheckMegaCtx(ctx context.Context, name string, p *secureview.Problem, opts Options) Result {
	opts = opts.withDefaults()
	var r Result
	r.Instances = 1
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		if p.Validate(v) != nil {
			continue
		}
		vn := name + "/" + map[secureview.Variant]string{secureview.Set: "set", secureview.Cardinality: "card"}[v]
		optCost := -1.0
		exact, err := solve.Solve(ctx, "exact", p, opts.solveOptions(v))
		r.SolverRuns++
		if err != nil {
			// The exact tier must decline the mega regime loudly and typed,
			// not crash or grind: anything but budget/cancel is a violation.
			r.skipOrViolate(vn, "exact solver on mega instance", err)
		} else {
			optCost = exact.Cost
			r.Exact = 1
		}
		for _, solver := range []string{"approx-setcover", "approx-labelcover", "portfolio"} {
			s, ok := solve.Get(solver)
			if !ok || s.Supports(p, v) != nil {
				continue
			}
			r.checkCertified(ctx, vn, solver, p, v, optCost, opts)
		}
	}
	return r
}

// checkCertified runs one certified solver and verifies feasibility plus
// the arithmetic of its certificate. optCost < 0 means no exact anchor is
// available (the mega regime).
func (r *Result) checkCertified(ctx context.Context, name, solver string, p *secureview.Problem,
	v secureview.Variant, optCost float64, opts Options) {
	res, err := solve.Solve(ctx, solver, p, opts.solveOptions(v))
	r.SolverRuns++
	if err != nil {
		r.skipOrViolate(name, solver, err)
		return
	}
	if !p.Feasible(res.Solution, v) {
		r.violatef("%s: %s solution infeasible", name, solver)
		return
	}
	if res.Bound.Factor <= 0 && !res.Optimal {
		r.violatef("%s: %s returned no certificate on a mega instance", name, solver)
		return
	}
	if !res.Optimal {
		if res.Bound.LP <= 0 {
			r.violatef("%s: %s certificate has a vacuous lower bound %g", name, solver, res.Bound.LP)
			return
		}
		if gap := solve.CertifiedGap(res); gap > eps(res.Cost) {
			r.violatef("%s: %s cost %g exceeds its certificate %g×%g (%s)",
				name, solver, res.Cost, res.Bound.Factor, res.Bound.LP, res.Bound.Theorem)
		}
	}
	if optCost >= 0 {
		if res.Cost < optCost-eps(optCost) {
			r.violatef("%s: %s cost %g below exact optimum %g", name, solver, res.Cost, optCost)
		}
		if res.Bound.LP > optCost+eps(optCost) {
			r.violatef("%s: %s lower bound %g exceeds exact optimum %g", name, solver, res.Bound.LP, optCost)
		}
	}
}

// CheckInstance runs the harness on a generated workflow instance. It is
// CheckInstanceCtx without cancellation.
func CheckInstance(it *gen.Instance, opts Options) Result {
	return CheckInstanceCtx(context.Background(), it, opts)
}

// CheckInstanceCtx runs the harness on a generated workflow instance: the
// standalone engine matrix per private module, the derived set- and
// cardinality-variant solver matrices (derivations served through a
// solve.Session, shared across instances when Options.Session is set),
// compiled-vs-interpreted oracle agreement, and —
// when small enough — exhaustive possible-world verification of the
// assembled optimum plus the worlds-vs-assembly cost ordering.
func CheckInstanceCtx(ctx context.Context, it *gen.Instance, opts Options) Result {
	opts = opts.withDefaults()
	sess := opts.Session
	if sess == nil {
		sess = solve.NewSession()
	}
	var r Result
	r.Instances = 1
	name := fmt.Sprintf("%s/seed=%d", it.W.Name(), it.Seed)

	r.checkStandalone(name, it, opts)

	// Derived set-variant instance.
	pset, errSet := sess.Problem(ctx, it.W, secureview.Set, it.Gamma, it.Costs, it.PrivatizeCosts)
	var exactSet secureview.Solution
	haveExact := false
	if errSet != nil {
		if errors.Is(errSet, secureview.ErrInfeasible) || cancelled(errSet) {
			r.Skips++ // no safe subset at Γ (or a cancelled run): legitimately skip
		} else {
			r.violatef("%s: derivation failed with a non-infeasibility error: %v", name, errSet)
		}
	} else {
		r.checkLayers(ctx, name+"/derived-set", pset, secureview.Set)
		res, err := solve.Solve(ctx, "exact", pset, opts.solveOptions(secureview.Set))
		r.SolverRuns++
		if err != nil {
			r.skipOrViolate(name, "derived-set exact solver", err)
		} else {
			haveExact = true
			exactSet = res.Solution
			r.Exact = 1
			allPrivate := len(it.W.PublicModules()) == 0
			r.checkEngine(ctx, name+"/derived-set", pset, secureview.Set, res.Cost, opts)
			r.checkHeuristics(ctx, name+"/derived-set", pset, secureview.Set, res.Cost, allPrivate, pset.Multiplicity(), opts)
		}
	}

	// Derived cardinality-variant instance.
	if pcard, err := sess.Problem(ctx, it.W, secureview.Cardinality, it.Gamma, it.Costs, it.PrivatizeCosts); err == nil {
		sub := CheckProblemCtx(ctx, name+"/derived-card", pcard, opts)
		sub.Instances, sub.Exact = 0, 0 // same instance, don't double count
		r = Merge(r, sub)
	} else if errors.Is(err, secureview.ErrInfeasible) || cancelled(err) {
		r.Skips++
	} else {
		r.violatef("%s: cardinality derivation failed with a non-infeasibility error: %v", name, err)
	}

	if haveExact {
		r.checkWorlds(ctx, name, it, pset, exactSet, opts)
	}
	return r
}

// CheckRef resolves an instance reference (gen.Resolve) and runs the
// harness on the result. It is CheckRefCtx without cancellation.
//
// The package does not import internal/gen/corpus; callers that pass
// corpus-ID references must import it themselves (for its resolver
// registration side effect).
func CheckRef(ref gen.InstanceRef, opts Options) Result {
	return CheckRefCtx(context.Background(), ref, opts)
}

// CheckRefCtx dispatches a resolved reference to the matching harness
// entry point: abstract problem classes run the problem-level matrix;
// recorded-log (CSV) instances derive under partial-log semantics and run
// the problem-level matrix on the derived problem (session derivations do
// not capture the recorded log, so the instance path would verify the
// wrong requirements); every other workflow-backed source runs the full
// instance harness. An unresolvable reference is a violation, not an
// error — a corpus or fixture that no longer resolves must fail the run.
func CheckRefCtx(ctx context.Context, ref gen.InstanceRef, opts Options) Result {
	var r Result
	rv, err := gen.Resolve(ref)
	if err != nil {
		r.Instances = 1
		r.violatef("ref: %v", err)
		return r
	}
	if rv.Problem != nil {
		return CheckProblemCtx(ctx, rv.Name, rv.Problem, opts)
	}
	if rv.Instance.Recorded != nil {
		p, derr := rv.Derive()
		if derr != nil {
			r.Instances = 1
			if errors.Is(derr, secureview.ErrInfeasible) || cancelled(derr) {
				r.Skips++
				return r
			}
			r.violatef("%s: derivation failed with a non-infeasibility error: %v", rv.Name, derr)
			return r
		}
		return CheckProblemCtx(ctx, rv.Name, p, opts)
	}
	return CheckInstanceCtx(ctx, rv.Instance, opts)
}

// checkStandalone compares, for every private module of the instance, the
// naive 2^k loop, the pruned engine and the compiled-oracle engine on the
// standalone min-cost safe subset, and the compiled vs interpreted oracle
// on every subset. Each module view is compiled here, directly from its
// functionality.
func (r *Result) checkStandalone(name string, it *gen.Instance, opts Options) {
	for _, m := range it.W.PrivateModules() {
		if m.Arity() > 12 {
			r.Skips++
			continue
		}
		mv := privacy.NewModuleView(m)
		sp, err := search.NewSpace(mv.Attrs(), it.Costs.Of)
		if err != nil {
			r.violatef("%s/%s: %v", name, m.Name(), err)
			continue
		}
		interp := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), it.Gamma) }
		naive, errN := sp.NaiveMinCost(interp)
		engine, errE := sp.MinCost(interp, opts.Search)
		r.SolverRuns += 2
		if errN != nil || errE != nil {
			r.violatef("%s/%s: standalone search failed: %v %v", name, m.Name(), errN, errE)
			continue
		}
		if naive.Found != engine.Found {
			r.violatef("%s/%s: naive found=%v but engine found=%v", name, m.Name(), naive.Found, engine.Found)
			continue
		}
		if naive.Found && naive.Cost != engine.Cost {
			r.violatef("%s/%s: naive optimum %g != engine optimum %g", name, m.Name(), naive.Cost, engine.Cost)
		}

		comp, err := mv.Compile()
		if err != nil {
			r.Skips++
			continue
		}
		interpOracle := privacy.OracleFunc(func(v relation.NameSet) (bool, error) {
			return mv.IsSafe(v, it.Gamma)
		})
		compOracle := privacy.OracleFunc(func(v relation.NameSet) (bool, error) {
			return comp.IsSafe(comp.MaskOf(v), it.Gamma), nil
		})
		disagree, compared, err := privacy.OraclesAgree(mv.Attrs(), interpOracle, compOracle)
		if err != nil {
			r.violatef("%s/%s: oracle comparison failed: %v", name, m.Name(), err)
			continue
		}
		r.OracleMasks += compared
		if disagree != nil {
			r.violatef("%s/%s: compiled oracle disagrees with Lemma 4 on %v", name, m.Name(), disagree)
		}
		compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), it.Gamma), nil }
		engineC, err := sp.MinCost(compiled, opts.Search)
		r.SolverRuns++
		if err != nil {
			r.violatef("%s/%s: compiled engine search failed: %v", name, m.Name(), err)
			continue
		}
		// Engine runs share the lexicographic tie-break, so the full result
		// must match bit for bit.
		if engineC.Found != engine.Found || engineC.Hidden != engine.Hidden || engineC.Cost != engine.Cost {
			r.violatef("%s/%s: compiled engine optimum (found=%v hidden=%b cost=%g) != interpreted (found=%v hidden=%b cost=%g)",
				name, m.Name(), engineC.Found, engineC.Hidden, engineC.Cost, engine.Found, engine.Hidden, engine.Cost)
		}

		if engineC.Stats.Checked+engineC.Stats.Pruned != 1<<sp.K() {
			r.violatef("%s/%s: compiled engine counters Checked %d + Pruned %d != 2^%d",
				name, m.Name(), engineC.Stats.Checked, engineC.Stats.Pruned, sp.K())
		}
	}
}

// checkWorlds verifies the assembled optimum against exhaustive
// possible-world semantics and cross-checks the worlds-grounded optimum's
// cost, on instances small enough to enumerate.
func (r *Result) checkWorlds(ctx context.Context, name string, it *gen.Instance, pset *secureview.Problem,
	exact secureview.Solution, opts Options) {
	if it.W.Schema().Len() > opts.WorldsAttrLimit {
		r.Skips++
		return
	}
	initial := relation.NewNameSet(it.W.InitialInputNames()...)
	if len(exact.Hidden.Intersect(initial)) > 0 {
		// The enumerator requires initial inputs visible (Definition 4
		// fixes them); the assembly may legitimately hide one.
		r.Skips++
		return
	}
	rel, err := it.W.Relation(1 << 12)
	if err != nil {
		r.Skips++
		return
	}
	visible := relation.NewNameSet(it.W.Schema().Names()...).Minus(exact.Hidden)
	failed, err := worlds.VerifyPrivateCtx(ctx, it.W, rel, visible, exact.Privatized, nil, it.Gamma, opts.WorldsBudget)
	if err != nil {
		if errors.Is(err, worlds.ErrBudgetExhausted) || cancelled(err) {
			r.Skips++ // instance too large to enumerate within budget (or run cancelled)
		} else {
			r.violatef("%s: worlds verification failed with a non-budget error: %v", name, err)
		}
		return
	}
	if failed != "" {
		r.violatef("%s: assembled optimum leaves %s not %d-workflow-private", name, failed, it.Gamma)
		return
	}
	r.WorldsVerified++

	// The worlds-grounded optimum can only be cheaper than the assembly
	// optimum (Theorem 4 assembles SUFFICIENT conditions), comparable when
	// nothing is privatized.
	if len(it.W.PublicModules()) == 0 {
		hp, err := it.HidingProblem(opts.WorldsBudget)
		if err != nil {
			r.Skips++
			return
		}
		hidden, cost, found, _, err := hp.MinCostHidingCtx(ctx, opts.Search)
		r.SolverRuns++
		if err != nil {
			if errors.Is(err, worlds.ErrBudgetExhausted) || cancelled(err) {
				r.Skips++
			} else {
				r.violatef("%s: worlds min-cost search failed with a non-budget error: %v", name, err)
			}
			return
		}
		if !found {
			r.violatef("%s: worlds search found no safe hiding but assembly optimum %v is workflow-private",
				name, exact.Hidden.Sorted())
			return
		}
		assemblyCost := pset.Cost(exact)
		if cost > assemblyCost+eps(assemblyCost) {
			r.violatef("%s: worlds optimum %g (hide %v) costs MORE than assembly optimum %g (hide %v)",
				name, cost, hidden.Sorted(), assemblyCost, exact.Hidden.Sorted())
		}
	}
}
