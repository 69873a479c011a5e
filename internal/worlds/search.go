package worlds

import (
	"context"
	"fmt"

	"secureview/internal/module"
	"secureview/internal/relation"
	"secureview/internal/search"
	"secureview/internal/workflow"
)

// HidingProblem is a workflow-level Secure-View search grounded directly in
// possible-world semantics (Definition 5) instead of the standalone
// assembly: find the cheapest subset of Candidates to hide so that every
// target module is Γ-workflow-private. The oracle is the Enumerator, so each
// safety test is expensive — exactly the regime the pruned, memoized engine
// of internal/search is built for.
//
// Workflow privacy is monotone in the hidden set: shrinking the visible set
// only relaxes the agreement constraint in Definition 4, so Worlds(R, V', P)
// ⊇ Worlds(R, V, P) whenever V' ⊆ V, and every OUT set can only grow. The
// oracle therefore meets the engine's monotonicity requirement.
type HidingProblem struct {
	// W is the workflow; R its provenance relation over W.Schema().
	W *workflow.Workflow
	R *relation.Relation
	// Candidates are the attributes eligible for hiding. They must not
	// include the workflow's initial inputs (the Enumerator requires those
	// visible). At most search.MaxAttrs many.
	Candidates []string
	// Costs assigns hiding penalties to candidates (missing names cost 0).
	Costs map[string]float64
	// Targets names the modules that must be Γ-workflow-private; empty means
	// every private module of W.
	Targets []string
	// Gamma is the privacy requirement.
	Gamma uint64
	// Privatized names public modules whose identity is hidden (section 5);
	// their functionality constraint is dropped during enumeration.
	Privatized relation.NameSet
	// Budget caps each enumeration (default 1<<24, as in Enumerator).
	Budget uint64
}

// MinCostHiding runs the engine over subsets of Candidates and returns the
// cheapest hidden set making every target Γ-workflow-private, with the
// deterministic lexicographic tie-break and the engine's search statistics.
// Found is false when even hiding every candidate leaves a target exposed.
// Stats.Checked counts full enumerator evaluations — each one exponential —
// so the Pruned column is where the engine earns its keep here.
func (hp HidingProblem) MinCostHiding(opts search.Options) (relation.NameSet, float64, bool, search.Stats, error) {
	return hp.MinCostHidingCtx(context.Background(), opts)
}

// MinCostHidingCtx is MinCostHiding with cancellation: the context reaches
// both the engine's candidate loop and every inner worlds enumeration, so a
// deadline interrupts even a single in-flight exponential safety test at its
// next candidate assignment. On expiry it returns ctx.Err().
func (hp HidingProblem) MinCostHidingCtx(ctx context.Context, opts search.Options) (relation.NameSet, float64, bool, search.Stats, error) {
	if hp.W == nil || hp.R == nil {
		return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: hiding search needs a workflow and relation")
	}
	if hp.Gamma == 0 {
		return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: hiding search needs Γ >= 1")
	}
	initial := relation.NewNameSet(hp.W.InitialInputNames()...)
	for _, a := range hp.Candidates {
		if initial.Has(a) {
			return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: candidate %q is an initial input and must stay visible", a)
		}
	}
	targets := hp.Targets
	if len(targets) == 0 {
		for _, m := range hp.W.Modules() {
			if m.Visibility() == module.Private {
				targets = append(targets, m.Name())
			}
		}
	}
	if len(targets) == 0 {
		return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: no target modules to protect")
	}
	sp, err := search.NewSpace(hp.Candidates, func(a string) float64 { return hp.Costs[a] })
	if err != nil {
		return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: %w", err)
	}
	allNames := relation.NewNameSet(hp.W.Schema().Names()...)
	// Compile the per-target query plans ONCE — module column layouts,
	// output-code spaces and the distinct input codes each target receives in
	// R are mask-independent — and share the read-only result across the
	// engine's worker pool. Per tested mask only the visible set changes;
	// each safety test is then one sharded pass over the possible worlds per
	// target, answering every input's OUT set simultaneously. The engine asks
	// about each candidate mask at most once per run, so no per-call memo is
	// needed; the engine's (cost, lex) order and best-index bound are what
	// keep the number of enumerations down.
	type targetPlan struct {
		layout  *targetLayout
		queries []uint64
	}
	probe := &Enumerator{W: hp.W, R: hp.R, Visible: allNames,
		Privatized: hp.Privatized, Budget: hp.Budget}
	plans := make([]targetPlan, len(targets))
	for i, target := range targets {
		m := hp.W.Module(target)
		if m == nil {
			return nil, 0, false, search.Stats{}, fmt.Errorf("worlds: no module %q", target)
		}
		tl, err := probe.layoutFor(m)
		if err != nil {
			return nil, 0, false, search.Stats{}, err
		}
		queries, err := probe.queriesFromRelation(tl)
		if err != nil {
			return nil, 0, false, search.Stats{}, err
		}
		plans[i] = targetPlan{layout: tl, queries: queries}
	}
	// The engine already fans masks out across its pool, so each inner
	// enumeration runs single-worker unless the engine itself is serialized.
	enumWorkers := 1
	if opts.Parallelism == 1 {
		enumWorkers = 0 // GOMAXPROCS
	}
	oracle := search.Oracle(func(visible search.Mask) (bool, error) {
		hidden := sp.NameSet(sp.All() &^ visible)
		e := &Enumerator{
			W:          hp.W,
			R:          hp.R,
			Visible:    allNames.Minus(hidden),
			Privatized: hp.Privatized,
			Budget:     hp.Budget,
			Workers:    enumWorkers,
		}
		for _, tp := range plans {
			bits, vacuous, err := e.outSets(ctx, tp.layout, tp.queries)
			if err != nil {
				return false, err
			}
			for i := range tp.queries {
				size := tp.layout.prodOut
				if !vacuous[i] {
					size = bits[i].Count()
				}
				if size < hp.Gamma {
					return false, nil
				}
			}
		}
		return true, nil
	})
	res, err := sp.MinCostCtx(ctx, oracle, opts)
	if err != nil {
		return nil, 0, false, res.Stats, err
	}
	if !res.Found {
		return nil, 0, false, res.Stats, nil
	}
	return sp.NameSet(res.Hidden), res.Cost, true, res.Stats, nil
}
