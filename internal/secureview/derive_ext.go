package secureview

import (
	"fmt"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

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
func (o DeriveOptions) moduleView(w *workflow.Workflow, m *module.Module) (privacy.ModuleView, error) {
	if o.Recorded == nil {
		return privacy.NewModuleView(m), nil
	}
	proj, err := o.Recorded.Project(m.AttrNames())
	if err != nil {
		return privacy.ModuleView{}, fmt.Errorf("secureview: projecting recorded relation for %s: %w", m.Name(), err)
	}
	return privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}, nil
}

// Derive builds a Secure-View instance (set-constraints variant) from a
// concrete workflow, following the assembly theorems: each private module's
// requirement list is its inclusion-minimal safe hidden sets, computed
// standalone by the pruned search engine (Theorem 4 for all-private
// workflows, Theorem 8 with privatization for general ones). Solving the
// returned instance therefore yields a Γ-private view of the whole
// workflow. Modules are analysed in workflow order; each module's subset
// sweep already fans out over the engine's worker pool.
func Derive(w *workflow.Workflow, opts DeriveOptions) (*Problem, error) {
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
		mv, err := opts.moduleView(w, m)
		if err != nil {
			return nil, err
		}
		minimal, err := mv.MinimalSafeHiddenSets(gamma)
		if err != nil {
			return nil, fmt.Errorf("secureview: module %s: %w", m.Name(), err)
		}
		if len(minimal) == 0 {
			return nil, fmt.Errorf("secureview: module %s has no safe subset for Γ=%d: %w", m.Name(), gamma, ErrInfeasible)
		}
		in := relation.NewNameSet(spec.Inputs...)
		for _, h := range minimal {
			var req SetReq
			for a := range h {
				if in.Has(a) {
					req.In = append(req.In, a)
				} else {
					req.Out = append(req.Out, a)
				}
			}
			spec.SetList = append(spec.SetList, req)
		}
		p.Modules = append(p.Modules, spec)
	}
	return p, nil
}
