package reductions_test

// Round-trip tests for the forward reductions: To ∘ From must recover the
// source combinatorial optimum exactly (the From constructions preserve
// optima, and the forward mapping enumerates every realization, so nothing
// is lost in either direction), and on generated instances every
// certificate the forward mapping ships must hold against an independently
// computed exact optimum.

import (
	"context"
	"math/rand"
	"testing"

	"secureview/internal/combopt"
	"secureview/internal/gen"
	"secureview/internal/reductions"
	"secureview/internal/secureview"
)

func tol(x float64) float64 { return 1e-6 * (1 + x) }

// TestToFromSetCoverCardinality: source set cover → Theorem 5 instance →
// forward weighted set cover. All three optima (source cover size, the
// instance's exact optimum, the derived weighted cover's optimum) must
// coincide, and the derived cover must pull back to a feasible solution of
// the same cost.
func TestToFromSetCoverCardinality(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sc := combopt.RandomSetCover(5+rng.Intn(3), 6+rng.Intn(4), 0.35, rng)
		src, err := sc.ExactCtx(ctx, 0)
		if err != nil {
			t.Fatalf("trial %d: source exact: %v", trial, err)
		}
		srcOpt := sc.CostOf(src)

		p := reductions.FromSetCoverCardinality(sc)
		exact, err := secureview.ExactCardBB(p, 1<<16)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		instOpt := p.Cost(exact)

		inst, err := reductions.ToSetCover(p, secureview.Cardinality)
		if err != nil {
			t.Fatalf("trial %d: ToSetCover: %v", trial, err)
		}
		cover, err := inst.SC.ExactCtx(ctx, 1<<20)
		if err != nil {
			t.Fatalf("trial %d: derived exact: %v", trial, err)
		}
		derivedOpt := inst.SC.CostOf(cover)

		if d := instOpt - srcOpt; d > tol(instOpt) || -d > tol(instOpt) {
			t.Errorf("trial %d: instance optimum %g != source cover size %g", trial, instOpt, srcOpt)
		}
		if d := derivedOpt - srcOpt; d > tol(derivedOpt) || -d > tol(derivedOpt) {
			t.Errorf("trial %d: derived SC optimum %g != source cover size %g", trial, derivedOpt, srcOpt)
		}
		sol := inst.PullBack(cover)
		if !p.Feasible(sol, secureview.Cardinality) {
			t.Errorf("trial %d: pulled-back cover infeasible", trial)
		}
		if c := p.Cost(sol); c > derivedOpt+tol(c) {
			t.Errorf("trial %d: pull-back cost %g exceeds cover weight %g", trial, c, derivedOpt)
		}
	}
}

// TestToFromLabelCoverSet: source label cover → Theorem 6 instance →
// forward weighted label cover. The derived optimum is sandwiched between
// the instance optimum and μ times it, and the derived exact assignment
// pulls back feasibly at no more than its own weight.
func TestToFromLabelCoverSet(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		lc := combopt.RandomLabelCover(2, 2, 2, 2, 2, rng)
		p := reductions.FromLabelCoverSet(lc)
		exact, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		opt := p.Cost(exact)

		inst, err := reductions.ToLabelCover(p)
		if err != nil {
			t.Fatalf("trial %d: ToLabelCover: %v", trial, err)
		}
		a, err := inst.LC.ExactCtx(ctx, 1<<20)
		if err != nil {
			t.Fatalf("trial %d: derived exact: %v", trial, err)
		}
		derivedOpt := inst.LC.CostOf(a)
		if derivedOpt < opt-tol(opt) {
			t.Errorf("trial %d: derived LC optimum %g below instance optimum %g", trial, derivedOpt, opt)
		}
		if mu := float64(inst.Mult); derivedOpt > mu*opt+tol(derivedOpt) {
			t.Errorf("trial %d: derived LC optimum %g exceeds μ=%g × optimum %g", trial, derivedOpt, mu, opt)
		}
		sol := inst.PullBack(a)
		if !p.Feasible(sol, secureview.Set) {
			t.Errorf("trial %d: pulled-back assignment infeasible", trial)
		}
		if c := p.Cost(sol); c > derivedOpt+tol(c) {
			t.Errorf("trial %d: pull-back cost %g exceeds assignment weight %g", trial, c, derivedOpt)
		}
		if inst.LowerBound > opt+tol(opt) {
			t.Errorf("trial %d: forward lower bound %g exceeds optimum %g", trial, inst.LowerBound, opt)
		}
	}
}

// TestToSetCoverCertificates: on every generated class (including the
// public-mix workflows, whose weights carry privatization closures) and
// both variants, the greedy cover must pull back feasibly within the
// certified factor of BOTH lower bounds, and each bound must sit below an
// independently computed exact optimum.
func TestToSetCoverCertificates(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.ProblemClasses() {
		for seed := int64(0); seed < 3; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
				if p.Validate(v) != nil {
					continue
				}
				name := map[secureview.Variant]string{secureview.Set: "set", secureview.Cardinality: "card"}[v]
				var exact secureview.Solution
				var err error
				if v == secureview.Set {
					exact, err = secureview.ExactSet(p, 1<<22)
				} else {
					exact, err = secureview.ExactCardBB(p, 1<<16)
				}
				if err != nil {
					t.Fatalf("%s/%d/%s: exact: %v", pc.Name, seed, name, err)
				}
				opt := p.Cost(exact)

				inst, err := reductions.ToSetCover(p, v)
				if err != nil {
					t.Fatalf("%s/%d/%s: ToSetCover: %v", pc.Name, seed, name, err)
				}
				cover, err := inst.SC.GreedyCtx(ctx)
				if err != nil {
					t.Fatalf("%s/%d/%s: greedy: %v", pc.Name, seed, name, err)
				}
				coverWeight := inst.SC.CostOf(cover)
				sol := inst.PullBack(cover)
				if !p.Feasible(sol, v) {
					t.Errorf("%s/%d/%s: pull-back infeasible", pc.Name, seed, name)
					continue
				}
				c := p.Cost(sol)
				if c < opt-tol(opt) {
					t.Errorf("%s/%d/%s: pull-back cost %g below optimum %g", pc.Name, seed, name, c, opt)
				}
				if c > coverWeight+tol(c) {
					t.Errorf("%s/%d/%s: pull-back cost %g exceeds cover weight %g", pc.Name, seed, name, c, coverWeight)
				}
				lb, err := inst.LowerBoundCtx(ctx)
				if err != nil {
					t.Fatalf("%s/%d/%s: LP bound: %v", pc.Name, seed, name, err)
				}
				for _, bound := range []float64{lb, inst.DualBound(coverWeight)} {
					if bound > opt+tol(opt) {
						t.Errorf("%s/%d/%s: lower bound %g exceeds optimum %g", pc.Name, seed, name, bound, opt)
					}
					if c > inst.Factor()*bound+tol(c) {
						t.Errorf("%s/%d/%s: cost %g breaks certificate %g × %g", pc.Name, seed, name, c, inst.Factor(), bound)
					}
				}
			}
		}
	}
}

// TestToLabelCoverCertificates mirrors TestToSetCoverCertificates for the
// all-private label-cover route on the set variant.
func TestToLabelCoverCertificates(t *testing.T) {
	ctx := context.Background()
	for _, pc := range gen.ProblemClasses() {
		if pc.Name == "public-mix" {
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			exact, err := secureview.ExactSet(p, 1<<22)
			if err != nil {
				t.Fatalf("%s/%d: exact: %v", pc.Name, seed, err)
			}
			opt := p.Cost(exact)
			inst, err := reductions.ToLabelCover(p)
			if err != nil {
				t.Fatalf("%s/%d: ToLabelCover: %v", pc.Name, seed, err)
			}
			a, err := inst.LC.GreedyAssignmentCtx(ctx)
			if err != nil {
				t.Fatalf("%s/%d: greedy assignment: %v", pc.Name, seed, err)
			}
			sol := inst.PullBack(a)
			if !p.Feasible(sol, secureview.Set) {
				t.Errorf("%s/%d: pull-back infeasible", pc.Name, seed)
				continue
			}
			c := p.Cost(sol)
			if c < opt-tol(opt) {
				t.Errorf("%s/%d: pull-back cost %g below optimum %g", pc.Name, seed, c, opt)
			}
			if inst.LowerBound > opt+tol(opt) {
				t.Errorf("%s/%d: lower bound %g exceeds optimum %g", pc.Name, seed, inst.LowerBound, opt)
			}
			if c > float64(inst.Mult)*inst.LowerBound+tol(c) {
				t.Errorf("%s/%d: cost %g breaks certificate %d × %g", pc.Name, seed, c, inst.Mult, inst.LowerBound)
			}
		}
	}
}

// TestToLabelCoverRejectsPublicModules: the label-cover route prices
// attribute hiding only, so instances with privatization closures must be
// refused rather than mis-certified.
func TestToLabelCoverRejectsPublicModules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := gen.Problem(gen.ProblemConfig{Modules: 6, PublicFrac: 0.5}, seed)
		hasPublic := false
		for _, m := range p.Modules {
			if m.Public {
				hasPublic = true
			}
		}
		if !hasPublic {
			continue
		}
		if _, err := reductions.ToLabelCover(p); err == nil {
			t.Fatal("ToLabelCover accepted a public-module instance")
		}
		return
	}
	t.Fatal("no public instance generated")
}
