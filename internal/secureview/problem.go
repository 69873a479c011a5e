// Package secureview implements the workflow Secure-View optimization
// problem of the paper (Davidson et al., PODS 2011, sections 4 and 5):
// choose a minimum-cost set of attributes to hide — and, in general
// workflows, public modules to privatize — so that every private module is
// Γ-workflow-private.
//
// By Theorems 4 and 8, workflow privacy is assembled from standalone
// guarantees: each private module mi carries a requirement list Li of
// admissible hidden "options", in one of two encodings:
//
//   - set constraints: explicit attribute pairs (I_i^j, O_i^j); hiding any
//     listed pair (or a superset) makes mi safe;
//   - cardinality constraints: number pairs (α_i^j, β_i^j); hiding at least
//     α_i^j inputs and β_i^j outputs of mi makes mi safe.
//
// The package provides the LP-rounding approximation algorithms of the
// paper (Figure 3 / Algorithm 1 for cardinality constraints, the ℓmax
// rounding for set constraints including the general-workflow variant of
// appendix C.4), the greedy (γ+1)-approximation for bounded data sharing,
// and exact solvers used to measure approximation ratios. Problem.Compile
// lowers the requirement lists onto a bitmask attribute universe, so the
// feasibility test a subset search asks per candidate costs a few word
// operations per option; ExactSetCtx, the set-variant exact solver, is a
// branch and bound over the compiled options that returns the engine
// solver's (cost, lex) optimum.
package secureview

import (
	"fmt"
	"math"
	"sort"

	"secureview/internal/privacy"
	"secureview/internal/relation"
)

// CardReq is one cardinality requirement (α, β): hide at least α input and
// β output attributes of the module.
type CardReq struct {
	Alpha, Beta int
}

// SetReq is one set requirement (I^j, O^j): hide at least these input and
// output attributes of the module.
type SetReq struct {
	In, Out []string
}

// Attrs returns the requirement's attributes as a set.
func (r SetReq) Attrs() relation.NameSet {
	return relation.NewNameSet(r.In...).Union(relation.NewNameSet(r.Out...))
}

// ModuleSpec describes one module of a Secure-View instance: its interface,
// visibility, privatization cost (public modules only) and requirement list
// (private modules only).
type ModuleSpec struct {
	Name    string
	Inputs  []string
	Outputs []string
	// Public marks a module whose behaviour users know a priori.
	Public bool
	// PrivatizeCost is c(m), paid when a public module must be hidden.
	PrivatizeCost float64
	// CardList is the cardinality requirement list Li (private modules).
	CardList []CardReq
	// SetList is the set requirement list Li (private modules).
	SetList []SetReq
}

// Problem is a workflow Secure-View instance.
type Problem struct {
	Modules []ModuleSpec
	// Costs assigns hiding penalties to attributes; missing attributes
	// cost 0.
	Costs privacy.Costs
}

// Validate checks structural sanity: finite non-negative costs,
// requirement bounds within module arity, set requirements referencing the
// module's own attributes, and private modules having at least one option
// in the relevant list.
func (p *Problem) Validate(variant Variant) error {
	// Report the name-smallest bad cost, so the error does not depend on
	// map order.
	bad := ""
	for a, c := range p.Costs {
		if !validCost(c) && (bad == "" || a < bad) {
			bad = a
		}
	}
	if bad != "" {
		return fmt.Errorf("secureview: attribute %q has cost %g; costs must be finite and non-negative", bad, p.Costs[bad])
	}
	seen := make(map[string]bool)
	for _, m := range p.Modules {
		if m.Name == "" {
			return fmt.Errorf("secureview: module with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("secureview: duplicate module %q", m.Name)
		}
		seen[m.Name] = true
		if !validCost(m.PrivatizeCost) {
			return fmt.Errorf("secureview: module %q has privatization cost %g; costs must be finite and non-negative", m.Name, m.PrivatizeCost)
		}
		if m.Public {
			continue
		}
		switch variant {
		case Cardinality:
			if len(m.CardList) == 0 {
				return fmt.Errorf("secureview: private module %q has empty cardinality list", m.Name)
			}
			for _, r := range m.CardList {
				if r.Alpha < 0 || r.Alpha > len(m.Inputs) || r.Beta < 0 || r.Beta > len(m.Outputs) {
					return fmt.Errorf("secureview: module %q requirement (%d,%d) out of bounds", m.Name, r.Alpha, r.Beta)
				}
			}
		case Set:
			if len(m.SetList) == 0 {
				return fmt.Errorf("secureview: private module %q has empty set list", m.Name)
			}
			in := relation.NewNameSet(m.Inputs...)
			out := relation.NewNameSet(m.Outputs...)
			for _, r := range m.SetList {
				for _, a := range r.In {
					if !in.Has(a) {
						return fmt.Errorf("secureview: module %q set requirement names non-input %q", m.Name, a)
					}
				}
				for _, a := range r.Out {
					if !out.Has(a) {
						return fmt.Errorf("secureview: module %q set requirement names non-output %q", m.Name, a)
					}
				}
			}
		}
	}
	return nil
}

// validCost reports whether c is a usable cost: finite and non-negative
// (c >= 0 is false for NaN and -Inf). The solvers' bounds and pruning
// assume both.
func validCost(c float64) bool { return c >= 0 && !math.IsInf(c, 1) }

// Variant selects the constraint encoding.
type Variant int

const (
	// Cardinality selects the (α, β) number-pair encoding.
	Cardinality Variant = iota
	// Set selects the explicit attribute-subset encoding.
	Set
)

// String returns "cardinality" or "set".
func (v Variant) String() string {
	if v == Set {
		return "set"
	}
	return "cardinality"
}

// Attributes returns every attribute appearing in the instance, sorted.
func (p *Problem) Attributes() []string {
	set := make(relation.NameSet)
	for _, m := range p.Modules {
		for _, a := range m.Inputs {
			set.Add(a)
		}
		for _, a := range m.Outputs {
			set.Add(a)
		}
	}
	return set.Sorted()
}

// UsefulAttributes returns, sorted, the attributes that can contribute to
// some private module's requirement in the variant: for cardinality, inputs
// of a module with a positive α option and outputs of one with a positive β
// option; for sets, every attribute named by some option. Hiding any other
// attribute only adds cost (and possibly privatization), so no optimum
// contains one — this is the exact solvers' and the engine solver's search
// universe.
func (p *Problem) UsefulAttributes(variant Variant) []string {
	useful := make(relation.NameSet)
	for _, m := range p.Modules {
		if m.Public {
			continue
		}
		switch variant {
		case Cardinality:
			maxAlpha, maxBeta := 0, 0
			for _, r := range m.CardList {
				if r.Alpha > maxAlpha {
					maxAlpha = r.Alpha
				}
				if r.Beta > maxBeta {
					maxBeta = r.Beta
				}
			}
			if maxAlpha > 0 {
				for _, a := range m.Inputs {
					useful.Add(a)
				}
			}
			if maxBeta > 0 {
				for _, a := range m.Outputs {
					useful.Add(a)
				}
			}
		case Set:
			for _, r := range m.SetList {
				for _, a := range r.In {
					useful.Add(a)
				}
				for _, a := range r.Out {
					useful.Add(a)
				}
			}
		}
	}
	return useful.Sorted()
}

// LMax returns the longest requirement list length ℓmax for the variant.
func (p *Problem) LMax(variant Variant) int {
	max := 0
	for _, m := range p.Modules {
		if m.Public {
			continue
		}
		l := len(m.SetList)
		if variant == Cardinality {
			l = len(m.CardList)
		}
		if l > max {
			max = l
		}
	}
	return max
}

// DataSharing returns γ: the maximum number of modules consuming any one
// attribute as input.
func (p *Problem) DataSharing() int {
	counts := make(map[string]int)
	for _, m := range p.Modules {
		for _, a := range m.Inputs {
			counts[a]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// Multiplicity returns the maximum number of modules any single attribute
// touches (as input OR output). For workflow-derived instances this is at
// most γ+1 (one producer plus at most γ consumers, Definition 3), and it is
// the exact constant in the Theorem 7 greedy analysis: on all-private
// instances, Greedy costs at most Multiplicity()×OPT, because the optimum's
// restriction to one module's attributes satisfies some option of that
// module, and each optimal attribute is charged once per touching module.
// The differential harness asserts that bound on every generated instance.
func (p *Problem) Multiplicity() int {
	counts := make(map[string]int)
	for _, m := range p.Modules {
		for _, a := range m.Inputs {
			counts[a]++
		}
		for _, a := range m.Outputs {
			counts[a]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// PrivateCount returns the number of private modules.
func (p *Problem) PrivateCount() int {
	n := 0
	for _, m := range p.Modules {
		if !m.Public {
			n++
		}
	}
	return n
}

// Solution is a candidate answer: hidden attributes plus privatized public
// modules.
type Solution struct {
	Hidden     relation.NameSet
	Privatized relation.NameSet
}

// Cost returns c(V̄) + c(P̄) under the problem's cost assignments.
func (p *Problem) Cost(s Solution) float64 {
	total := p.Costs.Sum(s.Hidden)
	for _, m := range p.Modules {
		if m.Public && s.Privatized.Has(m.Name) {
			total += m.PrivatizeCost
		}
	}
	return total
}

// PrivatizationClosure returns the set of public modules that must be
// privatized given the hidden attributes: by Theorem 8, a public module may
// stay visible only if all of its input and output attributes are visible.
func (p *Problem) PrivatizationClosure(hidden relation.NameSet) relation.NameSet {
	priv := make(relation.NameSet)
	for _, m := range p.Modules {
		if m.Public && (anyIn(hidden, m.Inputs) || anyIn(hidden, m.Outputs)) {
			priv.Add(m.Name)
		}
	}
	return priv
}

// Feasible reports whether the solution satisfies every private module's
// requirement (in the chosen variant) and privatizes every public module
// adjacent to a hidden attribute.
//
// Compiled.Feasible answers the same question, with nothing privatized, on
// attribute masks; this NameSet form stays the reference it is checked
// against.
func (p *Problem) Feasible(s Solution, variant Variant) bool {
	for _, m := range p.Modules {
		if m.Public {
			if s.Privatized.Has(m.Name) {
				continue
			}
			if anyIn(s.Hidden, m.Inputs) || anyIn(s.Hidden, m.Outputs) {
				return false
			}
			continue
		}
		if !m.Satisfied(s.Hidden, variant) {
			return false
		}
	}
	return true
}

// anyIn reports whether set holds one of the names.
func anyIn(set relation.NameSet, names []string) bool {
	for _, a := range names {
		if set.Has(a) {
			return true
		}
	}
	return false
}

// allIn reports whether set holds every one of the names.
func allIn(set relation.NameSet, names []string) bool {
	for _, a := range names {
		if !set.Has(a) {
			return false
		}
	}
	return true
}

// Satisfied reports whether hiding exactly the attributes of hidden meets
// one of the module's options in the variant: at least α inputs and β
// outputs hidden (cardinality), or every attribute of one listed pair
// hidden (set). It does not allocate.
func (m ModuleSpec) Satisfied(hidden relation.NameSet, variant Variant) bool {
	switch variant {
	case Cardinality:
		hi, ho := 0, 0
		for _, a := range m.Inputs {
			if hidden.Has(a) {
				hi++
			}
		}
		for _, a := range m.Outputs {
			if hidden.Has(a) {
				ho++
			}
		}
		for _, r := range m.CardList {
			if hi >= r.Alpha && ho >= r.Beta {
				return true
			}
		}
	case Set:
		for _, r := range m.SetList {
			if allIn(hidden, r.In) && allIn(hidden, r.Out) {
				return true
			}
		}
	}
	return false
}

// Complete returns the solution with the privatization closure applied and
// is the canonical way to turn a hidden-attribute set into a full solution.
func (p *Problem) Complete(hidden relation.NameSet) Solution {
	return Solution{Hidden: hidden, Privatized: p.PrivatizationClosure(hidden)}
}

// cheapestK returns the k cheapest attribute names from the list under the
// problem costs (stable on name for determinism); k must not exceed the
// list's length.
func (p *Problem) cheapestK(names []string, k int) []string {
	sorted := append([]string(nil), names...)
	sort.Slice(sorted, func(i, j int) bool {
		ci, cj := p.Costs.Of(sorted[i]), p.Costs.Of(sorted[j])
		if ci != cj {
			return ci < cj
		}
		return sorted[i] < sorted[j]
	})
	return sorted[:k]
}

// minCostOption returns the cheapest single-module option as an attribute
// set, for either variant. Used by the greedy algorithm and by the rounding
// repair step (B^min of Algorithm 1).
func (p *Problem) minCostOption(m ModuleSpec, variant Variant) (relation.NameSet, float64) {
	bestCost := -1.0
	var best relation.NameSet
	consider := func(attrs relation.NameSet) {
		c := p.Costs.Sum(attrs)
		if bestCost < 0 || c < bestCost {
			bestCost = c
			best = attrs
		}
	}
	switch variant {
	case Cardinality:
		for _, r := range m.CardList {
			if r.Alpha > len(m.Inputs) || r.Beta > len(m.Outputs) {
				continue
			}
			in := p.cheapestK(m.Inputs, r.Alpha)
			out := p.cheapestK(m.Outputs, r.Beta)
			consider(relation.NewNameSet(in...).Union(relation.NewNameSet(out...)))
		}
	case Set:
		for _, r := range m.SetList {
			consider(r.Attrs())
		}
	}
	if best == nil {
		return relation.NewNameSet(), 0
	}
	return best, bestCost
}
