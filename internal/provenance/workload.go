package provenance

import (
	"context"
	"fmt"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/query"
	"secureview/internal/relation"
	"secureview/internal/secureview"
)

// SecureViewForWorkload computes a Γ-private view whose cost function is
// derived from an expected query workload: hiding an attribute costs the
// total weight of the queries it makes unanswerable (section 1's "utility
// lost to the user"). It returns the view together with the retained
// utility — the fraction of workload weight still answerable. Solver and
// partial results behave as in SecureView.
func (s *Store) SecureViewForWorkload(ctx context.Context, gamma uint64, wl query.Workload, privatizeCosts map[string]float64, solver string) (*View, float64, error) {
	if err := wl.Validate(s.w.Schema()); err != nil {
		return nil, 0, err
	}
	const epsilon = 1e-3
	costs := wl.Costs(s.w.Schema(), epsilon)
	view, err := s.SecureView(ctx, gamma, costs, privatizeCosts, solver)
	if view == nil {
		return nil, 0, err
	}
	answerable, total := wl.AnswerableWeight(view.Visible)
	utility := 1.0
	if total > 0 {
		utility = answerable / total
	}
	return view, utility, err
}

// Answer evaluates a workload query against the view, refusing queries that
// touch hidden attributes.
func (v *View) Answer(q query.Query) (*relation.Relation, error) {
	if !q.Answerable(v.Visible) {
		return nil, fmt.Errorf("provenance: query %s touches hidden attributes", q.Name)
	}
	return q.Eval(v.rel)
}

// AuditRecorded re-checks the view's per-module standalone guarantees
// against the store's *current* recorded executions (the paper's R is the
// set of executions that have been run, so the guarantee must be re-audited
// as the log grows: new rows can introduce new input groups with too little
// output ambiguity). It returns nil when every private module — and every
// privatized public module — still meets Γ over the recorded projections.
func AuditRecorded(s *Store, v *View) error {
	for _, m := range s.w.Modules() {
		private := m.Visibility() == module.Private || v.Privatized.Has(m.Name())
		if !private {
			continue
		}
		proj, err := s.rel.Project(m.AttrNames())
		if err != nil {
			return err
		}
		mv := privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}
		safe, err := mv.IsSafe(v.Visible, v.Gamma)
		if err != nil {
			return err
		}
		if !safe {
			return fmt.Errorf("provenance: module %s no longer %d-private over the recorded log", m.Name(), v.Gamma)
		}
	}
	return nil
}

// SecureViewRecorded is like SecureView with the exact solver, but derives
// every module's requirement list from the projections of the *recorded*
// executions rather than from full module domains. Views computed this way
// are only guaranteed for the current log; re-audit with AuditRecorded
// after recording more executions.
func (s *Store) SecureViewRecorded(ctx context.Context, gamma uint64, costs privacy.Costs, privatizeCosts map[string]float64) (*View, error) {
	prob, err := secureview.Derive(s.w, secureview.Set, secureview.DeriveOptions{
		Gamma:          gamma,
		Costs:          costs,
		PrivatizeCosts: privatizeCosts,
		Recorded:       s.rel,
	})
	if err != nil {
		return nil, err
	}
	return s.solveAndBuild(ctx, prob, gamma, "exact")
}
