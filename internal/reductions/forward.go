package reductions

// forward.go inverts the From* hardness constructions: it maps a
// secureview.Problem ONTO the combinatorial problems, so the classical
// combopt approximation algorithms can serve instances beyond exact-search
// reach. Where the From* direction preserves optima exactly (that is what
// makes the hardness proofs tick), the forward direction is
// approximation-preserving up to the instance's charge multiplicity μ —
// the price of linearizing attribute sharing — and every mapping ships a
// machine-checkable certificate:
//
//   - ToSetCover covers the private modules with weighted "option
//     realization" sets; a greedy cover pulls back to a feasible solution of
//     cost at most H(d)·μ times the set-cover LP lower bound (Chvátal's
//     dual-fitting analysis plus the μ-charging argument).
//   - ToLabelCover (all-private, set constraints) encodes each option as an
//     (input-part, output-part) label pair on a two-vertex label cover; the
//     weighted greedy assignment pulls back to a feasible solution of cost
//     at most μ times the per-module-minimum lower bound — the Theorem 7
//     charging argument in label-cover clothing.
//
// Both certificates are relative to an explicit lower bound on the
// Secure-View optimum, so the differential harness can assert
// achieved ≤ factor × bound on instances where no exact optimum is known.

import (
	"context"
	"fmt"
	"strings"

	"secureview/internal/combopt"
	"secureview/internal/lp"
	"secureview/internal/relation"
	"secureview/internal/secureview"
)

// SetCoverInstance is the forward reduction Secure-View → weighted set
// cover. Universe elements are the private modules; each set is one
// realization of one module's requirement option, weighted by the full cost
// of hiding it (attributes plus the privatization closure it forces), and
// covering every private module it satisfies.
type SetCoverInstance struct {
	// SC is the weighted set-cover instance.
	SC combopt.SetCover
	// Hide[s] is the hidden-attribute realization behind set s.
	Hide []relation.NameSet
	// Mult is the charge multiplicity μ: the maximum number of requirement
	// sides any attribute serves, or private modules any public module is
	// shared with — the factor by which linearizing sharing can overcount.
	// SC's optimum is at most μ times the Secure-View optimum.
	Mult int
	// Harmonic is H(d) for d the largest coverage size: the weighted greedy
	// cover costs at most Harmonic times the set-cover LP optimum.
	Harmonic float64
	// Variant and Problem echo the mapping's source.
	Variant secureview.Variant
	Problem *secureview.Problem
}

// MaxRealizations caps the per-module realization count for the
// cardinality variant. The certificate needs EVERY (α, β)-subset
// realization present (the charging argument picks the one the optimum
// used, and with privatization closures in the weights no cheaper
// surrogate is safe), so a module whose binomials exceed the cap cannot be
// mapped soundly; ToSetCover reports that as an error wrapping
// secureview.ErrNodeBudget. Workflow arities are small in practice — the
// generator's classes stay well under the cap at any module count.
const MaxRealizations = 4096

// ToSetCover maps the problem onto weighted set cover for the variant. For
// set constraints each option contributes its literal attribute pair; for
// cardinality constraints each option (α, β) contributes every realization
// (each α-subset of inputs joined with each β-subset of outputs), so the
// family contains whichever realization an optimal solution satisfies the
// module with — the fact the μ-charging lower bound stands on.
func ToSetCover(p *secureview.Problem, v secureview.Variant) (*SetCoverInstance, error) {
	if err := p.Validate(v); err != nil {
		return nil, err
	}
	var privates []secureview.ModuleSpec
	for _, m := range p.Modules {
		if !m.Public {
			privates = append(privates, m)
		}
	}
	inst := &SetCoverInstance{
		SC:       combopt.SetCover{N: len(privates), Weights: []float64{}},
		Harmonic: 1,
		Mult:     chargeMultiplicity(p),
		Variant:  v,
		Problem:  p,
	}
	maxCovered := 0
	for _, m := range privates {
		realizations, err := optionRealizations(m, v)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		for _, b := range realizations {
			key := strings.Join(b.Sorted(), "\x00")
			if seen[key] {
				continue
			}
			seen[key] = true
			var covers []int
			for e, other := range privates {
				if other.Satisfied(b, v) {
					covers = append(covers, e)
				}
			}
			if len(covers) > maxCovered {
				maxCovered = len(covers)
			}
			inst.SC.Sets = append(inst.SC.Sets, covers)
			inst.SC.Weights = append(inst.SC.Weights, p.Cost(p.Complete(b)))
			inst.Hide = append(inst.Hide, b)
		}
	}
	for d := 1; d <= maxCovered; d++ {
		if d > 1 {
			inst.Harmonic += 1 / float64(d)
		}
	}
	return inst, nil
}

// Factor returns the certified approximation factor H(d)·μ: the pull-back
// of a greedy cover costs at most Factor() times any LowerBound.
func (inst *SetCoverInstance) Factor() float64 {
	return inst.Harmonic * float64(inst.Mult)
}

// PullBack turns a cover into a Secure-View solution: hide the union of the
// chosen realizations and apply the privatization closure. Feasibility is
// by construction (each covered module's satisfying realization is a subset
// of the union, and satisfaction is monotone in the hidden set); the cost
// is at most the cover's total weight (costs are subadditive under union).
func (inst *SetCoverInstance) PullBack(chosen []int) secureview.Solution {
	hidden := make(relation.NameSet)
	for _, s := range chosen {
		for a := range inst.Hide[s] {
			hidden.Add(a)
		}
	}
	return inst.Problem.Complete(hidden)
}

// LowerBoundCtx solves the set-cover LP relaxation and returns LP/μ, a
// certified lower bound on the Secure-View optimum: LP lower-bounds the
// set-cover optimum, which in turn is at most μ times the Secure-View
// optimum by the charging argument. The simplex observes ctx.
func (inst *SetCoverInstance) LowerBoundCtx(ctx context.Context) (float64, error) {
	prob := lp.NewProblem(len(inst.SC.Sets))
	covering := make([]map[int]float64, inst.SC.N)
	for s, elems := range inst.SC.Sets {
		prob.SetObjective(s, inst.SC.Weight(s))
		for _, e := range elems {
			if covering[e] == nil {
				covering[e] = make(map[int]float64)
			}
			covering[e][s] = 1
		}
	}
	for e, row := range covering {
		if row == nil {
			return 0, fmt.Errorf("reductions: private module %d has no covering set", e)
		}
		prob.MustAddConstraint(row, lp.GE, 1)
	}
	sol, err := prob.SolveCtx(ctx)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("reductions: set-cover LP %v", sol.Status)
	}
	return sol.Objective / float64(inst.Mult), nil
}

// DualBound is the LP-free fallback lower bound: a greedy cover of weight w
// certifies w/(H(d)·μ) ≤ OPT by Chvátal's dual fitting (w/H(d) ≤ LP) plus
// the μ-charging argument. Tight by construction, so the harness inequality
// achieved ≤ Factor × DualBound always holds with room to spare.
func (inst *SetCoverInstance) DualBound(coverWeight float64) float64 {
	return coverWeight / inst.Factor()
}

// LabelCoverInstance is the forward reduction Secure-View → weighted label
// cover for all-private set-constraint instances: one left vertex (the
// "input side") and one right vertex (the "output side"), one edge per
// private module, and one admissible label pair per option — the label for
// its input part against the label for its output part. Labels are shared
// across modules exactly when option parts coincide, which is how attribute
// sharing survives the mapping.
type LabelCoverInstance struct {
	// LC is the weighted label-cover instance (NU = NW = 1).
	LC combopt.LabelCover
	// USets[l] / WSets[l] are the attribute sets behind each label on the
	// input / output side.
	USets, WSets []relation.NameSet
	// Mult is the charge multiplicity μ (attribute side of
	// chargeMultiplicity; the instance is all-private).
	Mult int
	// LowerBound is Σ_i min_j c(option j of module i) / μ — a certified
	// lower bound on the Secure-View optimum by the Theorem 7 charging
	// argument. The greedy assignment's pull-back costs at most
	// μ × LowerBound.
	LowerBound float64
	// Problem echoes the mapping's source.
	Problem *secureview.Problem
}

// ToLabelCover maps an all-private set-constraint problem onto weighted
// label cover. Public modules are rejected: label weights price attribute
// hiding only, so privatization-closure costs would break the certificate.
func ToLabelCover(p *secureview.Problem) (*LabelCoverInstance, error) {
	if err := p.Validate(secureview.Set); err != nil {
		return nil, err
	}
	for _, m := range p.Modules {
		if m.Public {
			return nil, fmt.Errorf("reductions: label-cover forward mapping requires an all-private instance (public module %q)", m.Name)
		}
	}
	inst := &LabelCoverInstance{
		LC:      combopt.LabelCover{NU: 1, NW: 1},
		Problem: p,
	}
	uIdx := make(map[string]int)
	wIdx := make(map[string]int)
	label := func(idx map[string]int, sets *[]relation.NameSet, attrs relation.NameSet) int {
		key := strings.Join(attrs.Sorted(), "\x00")
		if l, ok := idx[key]; ok {
			return l
		}
		l := len(*sets)
		idx[key] = l
		*sets = append(*sets, attrs)
		return l
	}
	sumMin := 0.0
	for _, m := range p.Modules {
		var rel [][2]int
		minOpt := -1.0
		for _, req := range m.SetList {
			in := relation.NewNameSet(req.In...)
			out := relation.NewNameSet(req.Out...)
			lu := label(uIdx, &inst.USets, in)
			lw := label(wIdx, &inst.WSets, out)
			rel = append(rel, [2]int{lu, lw})
			if c := p.Costs.Sum(in) + p.Costs.Sum(out); minOpt < 0 || c < minOpt {
				minOpt = c
			}
		}
		sumMin += minOpt
		inst.LC.Edges = append(inst.LC.Edges, combopt.LCEdge{U: 0, W: 0, Rel: rel})
	}
	inst.LC.L = len(inst.USets)
	if len(inst.WSets) > inst.LC.L {
		inst.LC.L = len(inst.WSets)
	}
	uw := make([]float64, inst.LC.L)
	ww := make([]float64, inst.LC.L)
	for l, s := range inst.USets {
		uw[l] = p.Costs.Sum(s)
	}
	for l, s := range inst.WSets {
		ww[l] = p.Costs.Sum(s)
	}
	inst.LC.Weights = [][]float64{uw, ww}
	inst.Mult = chargeMultiplicity(p)
	inst.LowerBound = sumMin / float64(inst.Mult)
	return inst, nil
}

// PullBack turns an assignment into a Secure-View solution: hide the union
// of the attribute sets behind every assigned label. Each covered edge has
// an admissible pair assigned, so the corresponding option's attributes are
// all hidden and the module is satisfied; the instance is all-private, so
// the closure is empty and the cost is at most the assignment's weight.
func (inst *LabelCoverInstance) PullBack(a combopt.Assignment) secureview.Solution {
	hidden := make(relation.NameSet)
	add := func(labels []bool, sets []relation.NameSet) {
		for l, on := range labels {
			if on && l < len(sets) {
				for attr := range sets[l] {
					hidden.Add(attr)
				}
			}
		}
	}
	if len(a) == 2 {
		add(a[0], inst.USets)
		add(a[1], inst.WSets)
	}
	return inst.Problem.Complete(hidden)
}

// chargeMultiplicity returns μ: the larger of the attribute multiplicity
// (how many requirement sides one attribute can serve, Theorem 7's
// constant) and, for general workflows, the number of private modules any
// public module shares an attribute with (how many options can each force
// the same privatization). An optimal solution decomposed into per-module
// options is counted at most μ times, so the linearized optimum is at most
// μ × OPT.
func chargeMultiplicity(p *secureview.Problem) int {
	mult := p.Multiplicity()
	for _, m := range p.Modules {
		if !m.Public {
			continue
		}
		attrs := relation.NewNameSet(m.Inputs...).Union(relation.NewNameSet(m.Outputs...))
		shared := 0
		for _, other := range p.Modules {
			if other.Public {
				continue
			}
			touches := false
			for _, a := range other.Inputs {
				if attrs.Has(a) {
					touches = true
					break
				}
			}
			if !touches {
				for _, a := range other.Outputs {
					if attrs.Has(a) {
						touches = true
						break
					}
				}
			}
			if touches {
				shared++
			}
		}
		if shared > mult {
			mult = shared
		}
	}
	if mult < 1 {
		mult = 1
	}
	return mult
}

// optionRealizations enumerates the hidden-attribute sets one module's
// options can resolve to: the literal attribute pairs for set options, and
// every (α-subset of inputs) ∪ (β-subset of outputs) for cardinality
// options, capped at MaxRealizations per module.
func optionRealizations(m secureview.ModuleSpec, v secureview.Variant) ([]relation.NameSet, error) {
	var out []relation.NameSet
	if v == secureview.Set {
		for _, req := range m.SetList {
			out = append(out, req.Attrs())
		}
		return out, nil
	}
	for _, req := range m.CardList {
		ins := subsetsOf(m.Inputs, req.Alpha)
		outs := subsetsOf(m.Outputs, req.Beta)
		if len(ins)*len(outs) > MaxRealizations-len(out) {
			return nil, fmt.Errorf("reductions: module %q has over %d realizations: %w",
				m.Name, MaxRealizations, secureview.ErrNodeBudget)
		}
		for _, in := range ins {
			for _, o := range outs {
				out = append(out, in.Union(o))
			}
		}
	}
	return out, nil
}

// subsetsOf enumerates the k-subsets of names as NameSets (just the empty
// set when k is 0; none when k exceeds the arity).
func subsetsOf(names []string, k int) []relation.NameSet {
	if k > len(names) {
		return nil
	}
	var out []relation.NameSet
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			s := make(relation.NameSet, k)
			for _, i := range idx {
				s.Add(names[i])
			}
			out = append(out, s)
			return
		}
		for i := start; i <= len(names)-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
