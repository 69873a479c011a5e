package secureview

import (
	"errors"
	"fmt"
	"math/bits"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/search"
	"secureview/internal/workflow"
)

// ErrInfeasible is wrapped (errors.Is-able) by Derive when some private
// module has NO safe option at its Γ — the workflow is genuinely infeasible
// at that requirement, as opposed to an internal failure of the derivation
// itself. Harnesses use it to tell "legitimately skip this instance" from
// "a derivation bug is being swallowed".
var ErrInfeasible = errors.New("secureview: infeasible at Γ")

// DeriveOptions configures the assembly of a Secure-View instance from a
// concrete workflow.
type DeriveOptions struct {
	// Gamma is the default privacy requirement for every private module.
	Gamma uint64
	// GammaPerModule overrides Gamma for named modules. The paper notes
	// (below Definition 5) that all results carry over to per-module
	// requirements Γi.
	GammaPerModule map[string]uint64
	// Costs assigns attribute hiding penalties.
	Costs privacy.Costs
	// PrivatizeCosts assigns c(m) to public modules.
	PrivatizeCosts map[string]float64
	// Recorded, when non-nil, derives each module's requirement lists from
	// the projection of this provenance relation instead of the module's
	// full input domain. The paper's relation R is "the set of workflow
	// executions that have been run" (section 1), so safety over the
	// recorded executions is the faithful reading for partial logs; note a
	// view derived from a partial log is only guaranteed for that log.
	Recorded *relation.Relation
}

func (o DeriveOptions) gammaFor(name string) uint64 {
	if g, ok := o.GammaPerModule[name]; ok {
		return g
	}
	return o.Gamma
}

// moduleView returns the standalone view of m under the options: the full
// functionality by default, or the projection of the recorded relation.
func (o DeriveOptions) moduleView(m *module.Module) (privacy.ModuleView, error) {
	if o.Recorded == nil {
		return privacy.NewModuleView(m), nil
	}
	proj, err := o.Recorded.Project(m.AttrNames())
	if err != nil {
		return privacy.ModuleView{}, fmt.Errorf("secureview: projecting recorded relation for %s: %w", m.Name(), err)
	}
	return privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}, nil
}

// Derive builds the Secure-View instance of a concrete workflow in variant
// v, following the assembly theorems (Theorem 4 for all-private workflows,
// Theorem 8 with privatization for general ones): each private module gets
// the requirement list DeriveSet or DeriveCard computes standalone at its
// Γ, over its full functionality or over opts.Recorded. Solving the
// returned instance therefore yields a Γ-private view of the whole
// workflow. Modules are analysed in workflow order; a set derivation's
// level sweep already fans out over the engine's worker pool.
func Derive(w *workflow.Workflow, v Variant, opts DeriveOptions) (*Problem, error) {
	if opts.Gamma == 0 && len(opts.GammaPerModule) == 0 {
		return nil, fmt.Errorf("secureview: Derive needs a privacy requirement")
	}
	mods := w.Modules()
	p := &Problem{Costs: opts.Costs, Modules: make([]ModuleSpec, 0, len(mods))}
	for _, m := range mods {
		spec := ModuleSpec{
			Name:    m.Name(),
			Inputs:  m.InputNames(),
			Outputs: m.OutputNames(),
		}
		if m.Visibility() == module.Public {
			spec.Public = true
			spec.PrivatizeCost = opts.PrivatizeCosts[m.Name()]
			p.Modules = append(p.Modules, spec)
			continue
		}
		gamma := opts.gammaFor(m.Name())
		if gamma == 0 {
			return nil, fmt.Errorf("secureview: module %s has no privacy requirement", m.Name())
		}
		mv, err := opts.moduleView(m)
		if err != nil {
			return nil, err
		}
		none := "safe subset"
		if v == Set {
			spec.SetList, err = DeriveSet(mv, gamma)
		} else {
			spec.CardList, err = DeriveCard(mv, gamma)
			none = "cardinality-safe pair"
		}
		if err != nil {
			return nil, fmt.Errorf("secureview: module %s: %w", m.Name(), err)
		}
		if len(spec.SetList)+len(spec.CardList) == 0 {
			return nil, fmt.Errorf("secureview: module %s has no %s for Γ=%d: %w", m.Name(), none, gamma, ErrInfeasible)
		}
		p.Modules = append(p.Modules, spec)
	}
	return p, nil
}

// DeriveSet builds the set requirement list of one module view: its
// inclusion-minimal hidden sets V̄ such that V = (I∪O)\V̄ is safe for Γ. By
// Proposition 1 safety is monotone in the hidden set, so these generate all
// safe solutions (the lists Li of section 4.2). They come from the engine's
// level sweep, which skips every dominated hidden set without a safety
// test, in its order: by size, then by mask value. Each option lists its
// inputs, then its outputs, in the module's own order.
func DeriveSet(mv privacy.ModuleView, gamma uint64) ([]SetReq, error) {
	attrs := mv.Attrs()
	if len(attrs) > search.LevelMax {
		return nil, fmt.Errorf("privacy: %d attributes too many to enumerate", len(attrs))
	}
	sp, err := search.NewSpace(attrs, nil)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	masks, _, err := sp.MinimalSafeHidden(mv.Oracle(sp, gamma), search.Options{})
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	nI := len(mv.Inputs)
	list := make([]SetReq, len(masks))
	for i, h := range masks {
		req := &list[i]
		for x := h; x != 0; x &= x - 1 {
			b := bits.TrailingZeros32(uint32(x))
			if b < nI {
				req.In = append(req.In, attrs[b])
			} else {
				req.Out = append(req.Out, attrs[b])
			}
		}
	}
	return list, nil
}

// DeriveCard builds the cardinality requirement list of one module view:
// the Pareto-minimal pairs (α, β) such that hiding ANY α inputs and β
// outputs is safe for Γ. This encoding is sound by construction (every
// conforming hidden set is safe) and exact for symmetric modules such as
// the one-one and majority functions of Example 6; for asymmetric modules
// it is conservative. Exponential in the module arity: each pair asks the
// module view's oracle about its C(nI,α)·C(nO,β) hidden sets as masks.
func DeriveCard(mv privacy.ModuleView, gamma uint64) ([]CardReq, error) {
	nI, nO := len(mv.Inputs), len(mv.Outputs)
	if nI+nO > 20 {
		return nil, fmt.Errorf("secureview: module arity %d too large for cardinality derivation", nI+nO)
	}
	sp, err := search.NewSpace(mv.Attrs(), nil)
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	isSafe := mv.Oracle(sp, gamma)
	// Hidden input sets by size, and hidden output sets by size, shifted
	// past the inputs.
	ins, outs := masksBySize(nI, 0), masksBySize(nO, nI)
	all := sp.All()
	safePair := func(alpha, beta int) (bool, error) {
		// Every hidden set with exactly alpha inputs and beta outputs must
		// be safe. (By Proposition 1, larger hidden sets stay safe.)
		for _, hi := range ins[alpha] {
			for _, ho := range outs[beta] {
				ok, err := isSafe(all &^ (hi | ho))
				if err != nil || !ok {
					return false, err
				}
			}
		}
		return true, nil
	}
	var frontier []CardReq
	for alpha := 0; alpha <= nI; alpha++ {
		// For fixed alpha find the smallest beta that works; by
		// monotonicity in beta a binary structure would do, linear is fine.
		for beta := 0; beta <= nO; beta++ {
			ok, err := safePair(alpha, beta)
			if err != nil {
				return nil, err
			}
			if ok {
				dominated := false
				for _, r := range frontier {
					if r.Alpha <= alpha && r.Beta <= beta {
						dominated = true
						break
					}
				}
				if !dominated {
					frontier = append(frontier, CardReq{Alpha: alpha, Beta: beta})
				}
				break
			}
		}
	}
	return frontier, nil
}

// masksBySize buckets the subsets of n consecutive bits starting at bit
// shift by their size.
func masksBySize(n, shift int) [][]search.Mask {
	out := make([][]search.Mask, n+1)
	for m := 0; m < 1<<n; m++ {
		size := bits.OnesCount32(uint32(m))
		out[size] = append(out[size], search.Mask(m)<<shift)
	}
	return out
}
