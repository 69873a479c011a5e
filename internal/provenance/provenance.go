// Package provenance is the user-facing layer of the library: it records
// workflow executions into a provenance relation, and publishes privacy-
// preserving views of it.
//
// This is the deployment surface the paper motivates (section 1): a
// workflow owner records runs, decides a privacy requirement Γ and
// attribute costs, and the store computes a safe view — a projection of the
// provenance relation that keeps every private module Γ-private, with
// public modules privatized (renamed) when required by Theorem 8. Users
// query the view; hidden attributes and the identities of privatized
// modules are never revealed.
package provenance

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/workflow"
)

// Store accumulates executions of one workflow.
type Store struct {
	w   *workflow.Workflow
	rel *relation.Relation
}

// NewStore returns an empty store for the workflow.
func NewStore(w *workflow.Workflow) *Store {
	return &Store{w: w, rel: relation.New(w.Schema())}
}

// Workflow returns the underlying workflow.
func (s *Store) Workflow() *workflow.Workflow { return s.w }

// Record executes the workflow on one initial-input assignment and stores
// the provenance tuple. Duplicate executions are merged (set semantics).
func (s *Store) Record(initial relation.Tuple) error {
	row, err := s.w.Execute(initial)
	if err != nil {
		return err
	}
	return s.rel.Insert(row)
}

// RecordAll executes the workflow over its entire initial-input domain
// (bounded by maxRows), making the stored relation total.
func (s *Store) RecordAll(maxRows uint64) error {
	r, err := s.w.Relation(maxRows)
	if err != nil {
		return err
	}
	s.rel = r
	return nil
}

// Size returns the number of recorded executions.
func (s *Store) Size() int { return s.rel.Len() }

// Relation returns the full provenance relation (owner-side access).
func (s *Store) Relation() *relation.Relation { return s.rel }

// View is a published privacy-preserving projection of the provenance
// relation.
type View struct {
	// Visible lists the visible attributes V.
	Visible relation.NameSet
	// Hidden lists the hidden attributes V̄.
	Hidden relation.NameSet
	// Privatized lists public modules whose identity is hidden.
	Privatized relation.NameSet
	// Gamma is the privacy requirement the view guarantees.
	Gamma uint64
	// Cost is the total cost c(V̄) + c(P̄) paid for the view.
	Cost float64

	rel   *relation.Relation // already projected onto Visible
	w     *workflow.Workflow
	alias map[string]string // privatized module -> anonymous name
}

// SecureView computes a Γ-private view: it derives per-module requirement
// lists from standalone analysis (Theorem 4 / Theorem 8 assembly), solves
// the Secure-View optimization with the named internal/solve registry
// solver (set constraints, default budgets), verifies the solution, and
// returns the projected view.
//
// ctx bounds the solve. When the solver stops early (deadline or budget)
// but carries a feasible incumbent out, SecureView returns the view of that
// incumbent together with the error, as solve.Result.Partial does;
// otherwise a non-nil error comes with a nil view.
func (s *Store) SecureView(ctx context.Context, gamma uint64, costs privacy.Costs, privatizeCosts map[string]float64, solver string) (*View, error) {
	prob, err := secureview.Derive(s.w, secureview.Set, secureview.DeriveOptions{
		Gamma:          gamma,
		Costs:          costs,
		PrivatizeCosts: privatizeCosts,
	})
	if err != nil {
		return nil, err
	}
	return s.solveAndBuild(ctx, prob, gamma, solver)
}

// solveAndBuild solves the instance through the registry and packages the
// view, keeping a partial result's incumbent alongside its error.
func (s *Store) solveAndBuild(ctx context.Context, prob *secureview.Problem, gamma uint64, solver string) (*View, error) {
	res, solveErr := solve.Solve(ctx, solver, prob, solve.Options{Variant: secureview.Set})
	if solveErr != nil && !res.Partial {
		return nil, solveErr
	}
	sol := res.Solution
	if !prob.Feasible(sol, secureview.Set) {
		return nil, fmt.Errorf("provenance: solver %s produced infeasible solution", solver)
	}
	all := relation.NewNameSet(s.w.Schema().Names()...)
	visible := all.Minus(sol.Hidden)
	projected, err := s.rel.Project(visible.FilterSorted(s.w.Schema().Names()))
	if err != nil {
		return nil, err
	}
	alias := make(map[string]string)
	i := 1
	for _, name := range sol.Privatized.Sorted() {
		alias[name] = fmt.Sprintf("hidden-module-%d", i)
		i++
	}
	return &View{
		Visible:    visible,
		Hidden:     sol.Hidden,
		Privatized: sol.Privatized,
		Gamma:      gamma,
		Cost:       prob.Cost(sol),
		rel:        projected,
		w:          s.w,
		alias:      alias,
	}, solveErr
}

// Relation returns the projected relation R_V the view publishes.
func (v *View) Relation() *relation.Relation { return v.rel }

// Query projects the view further onto the requested attributes. Requests
// touching hidden attributes fail — the user cannot observe them.
func (v *View) Query(attrs []string) (*relation.Relation, error) {
	for _, a := range attrs {
		if !v.Visible.Has(a) {
			return nil, fmt.Errorf("provenance: attribute %q is not visible in this view", a)
		}
	}
	return v.rel.Project(attrs)
}

// ModuleName returns the name the view exposes for a module: privatized
// public modules are renamed to anonymous identifiers (the privatization
// device of section 5.1); everything else keeps its name.
func (v *View) ModuleName(name string) string {
	if alias, ok := v.alias[name]; ok {
		return alias
	}
	return name
}

// exportModule is the JSON shape of one module in an exported view.
type exportModule struct {
	Name       string   `json:"name"`
	Inputs     []string `json:"inputs"`
	Outputs    []string `json:"outputs"`
	Visibility string   `json:"visibility"`
}

// exportDoc is the JSON document shape of an exported view, loosely
// following the Open Provenance Model's process/artifact split: modules are
// processes, attributes are artifacts, executions are accounts.
type exportDoc struct {
	Workflow   string           `json:"workflow"`
	Gamma      uint64           `json:"gamma"`
	Modules    []exportModule   `json:"modules"`
	Attributes []string         `json:"attributes"`
	Executions []map[string]int `json:"executions"`
}

// ExportJSON serializes the view: visible attributes only, privatized
// modules renamed, one record per execution.
func (v *View) ExportJSON() ([]byte, error) {
	doc := exportDoc{
		Workflow:   v.w.Name(),
		Gamma:      v.Gamma,
		Attributes: v.Visible.FilterSorted(v.w.Schema().Names()),
	}
	for _, m := range v.w.Modules() {
		vis := m.Visibility().String()
		if v.Privatized.Has(m.Name()) {
			vis = "privatized"
		}
		doc.Modules = append(doc.Modules, exportModule{
			Name:       v.ModuleName(m.Name()),
			Inputs:     v.Visible.FilterSorted(m.InputNames()),
			Outputs:    v.Visible.FilterSorted(m.OutputNames()),
			Visibility: vis,
		})
	}
	names := v.rel.Schema().Names()
	for _, row := range v.rel.SortedRows() {
		rec := make(map[string]int, len(names))
		for i, n := range names {
			rec[n] = row[i]
		}
		doc.Executions = append(doc.Executions, rec)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// VerifyStandalone re-checks, for every private module, that the view's
// visible attributes are standalone-safe for Γ (the building block whose
// assembly Theorems 4 and 8 guarantee). It is an owner-side audit tool.
func (v *View) VerifyStandalone() error {
	for _, m := range v.w.Modules() {
		if m.Visibility() == module.Public && !v.Privatized.Has(m.Name()) {
			// Theorem 8 side condition: all attributes visible.
			for _, a := range append(m.InputNames(), m.OutputNames()...) {
				if !v.Visible.Has(a) {
					return fmt.Errorf("provenance: visible public module %s has hidden attribute %q", m.Name(), a)
				}
			}
			continue
		}
		if m.Visibility() == module.Public {
			continue // privatized; treated as private going forward
		}
		mv := privacy.NewModuleView(m)
		safe, err := mv.IsSafe(v.Visible, v.Gamma)
		if err != nil {
			return err
		}
		if !safe {
			return fmt.Errorf("provenance: module %s not %d-standalone-private", m.Name(), v.Gamma)
		}
	}
	return nil
}

// HiddenSorted returns the hidden attributes in sorted order (stable
// reporting helper).
func (v *View) HiddenSorted() []string {
	out := v.Hidden.Sorted()
	sort.Strings(out)
	return out
}
