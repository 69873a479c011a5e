package secureview

import (
	"errors"
	"fmt"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

// ErrInfeasible is wrapped (errors.Is-able) by Derive and DeriveCardProblem
// when some private module has NO safe option at its Γ — the workflow is
// genuinely infeasible at that requirement, as opposed to an internal
// failure of the derivation itself. Harnesses use it to tell "legitimately
// skip this instance" from "a derivation bug is being swallowed".
var ErrInfeasible = errors.New("secureview: infeasible at Γ")

// DeriveCard builds the cardinality requirement list for one module view:
// the Pareto-minimal pairs (α, β) such that hiding ANY α inputs and β
// outputs is safe for Γ. This encoding is sound by construction (every
// conforming hidden set is safe) and exact for symmetric modules such as
// the one-one and majority functions of Example 6; for asymmetric modules
// it is conservative. Exponential in the module arity. The view is compiled
// to the integer-coded oracle once, so each of the C(nI,α)·C(nO,β) subset
// tests is a sort-and-scan over packed row codes rather than a relation
// scan; views with overflowing domain products fall back to the interpreted
// test.
func DeriveCard(mv privacy.ModuleView, gamma uint64) ([]CardReq, error) {
	nI, nO := len(mv.Inputs), len(mv.Outputs)
	if nI+nO > 20 {
		return nil, fmt.Errorf("secureview: module arity %d too large for cardinality derivation", nI+nO)
	}
	all := relation.NewNameSet(mv.Attrs()...)
	isSafe := func(visible relation.NameSet) (bool, error) {
		return mv.IsSafe(visible, gamma)
	}
	if comp, err := mv.Compile(); err == nil {
		isSafe = func(visible relation.NameSet) (bool, error) {
			return comp.IsSafe(comp.MaskOf(visible), gamma), nil
		}
	}
	safePair := func(alpha, beta int) (bool, error) {
		// Every hidden set with exactly alpha inputs and beta outputs must
		// be safe. (By Proposition 1, larger hidden sets stay safe.)
		inSubsets := subsetsOfSize(mv.Inputs, alpha)
		outSubsets := subsetsOfSize(mv.Outputs, beta)
		for _, hi := range inSubsets {
			for _, ho := range outSubsets {
				hidden := relation.NewNameSet(hi...).Union(relation.NewNameSet(ho...))
				ok, err := isSafe(all.Minus(hidden))
				if err != nil {
					return false, err
				}
				if !ok {
					return false, nil
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

func subsetsOfSize(names []string, k int) [][]string {
	var out [][]string
	n := len(names)
	if k > n {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		pick := make([]string, k)
		for i, j := range idx {
			pick[i] = names[j]
		}
		out = append(out, pick)
		// Next combination.
		i := k - 1
		for ; i >= 0; i-- {
			if idx[i] < n-k+i {
				break
			}
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// DeriveCardProblem is Derive's counterpart for the cardinality variant:
// it attaches a sound cardinality list to every private module.
func DeriveCardProblem(w *workflow.Workflow, gamma uint64, costs privacy.Costs, privatizeCosts map[string]float64) (*Problem, error) {
	p := &Problem{Costs: costs}
	for _, m := range w.Modules() {
		spec := ModuleSpec{
			Name:    m.Name(),
			Inputs:  m.InputNames(),
			Outputs: m.OutputNames(),
		}
		if m.Visibility() == module.Public {
			spec.Public = true
			spec.PrivatizeCost = privatizeCosts[m.Name()]
			p.Modules = append(p.Modules, spec)
			continue
		}
		mv := privacy.NewModuleView(m)
		list, err := DeriveCard(mv, gamma)
		if err != nil {
			return nil, fmt.Errorf("secureview: module %s: %w", m.Name(), err)
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("secureview: module %s has no cardinality-safe pair for Γ=%d: %w", m.Name(), gamma, ErrInfeasible)
		}
		spec.CardList = list
		p.Modules = append(p.Modules, spec)
	}
	return p, nil
}
