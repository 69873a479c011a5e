package secureview

import (
	"context"
	"fmt"

	"secureview/internal/lp"
	"secureview/internal/relation"
)

// SetLPRound implements the ℓmax-approximation for set constraints
// (appendix B.5.1), extended to general workflows with privatization costs
// (appendix C.4): solve the LP
//
//	min Σ c_b x_b + Σ c_i w_i
//	s.t. Σ_j r_ij >= 1                 for every private module i   (19)
//	     x_b >= r_ij                   for every b ∈ I_i^j ∪ O_i^j  (20)
//	     w_i >= x_b                    for every attr b of public i (21)
//	     0 <= x, r, w <= 1
//
// and hide every attribute with x_b >= 1/ℓmax (then privatize by closure).
// Feasibility: some r_ij >= 1/ℓi >= 1/ℓmax, so that option's attributes all
// reach the threshold. The cost is at most ℓmax times the LP optimum, which
// lower-bounds OPT. Returns the solution and the LP optimum.
func SetLPRound(p *Problem) (Solution, float64, error) {
	if err := p.Validate(Set); err != nil {
		return Solution{}, 0, err
	}
	return SetLPRoundCtx(context.Background(), p)
}

// SetLPRoundCtx is SetLPRound with cancellation inside the simplex (polled
// every few dozen pivots). On expiry it returns ctx.Err() and no solution —
// the rounding is a single deterministic threshold pass, so there is no
// meaningful partial result. p must pass p.Validate(Set), as the solve
// registry's capability check guarantees.
func SetLPRoundCtx(ctx context.Context, p *Problem) (Solution, float64, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, 0, err
	}
	lmax := p.LMax(Set)
	if lmax == 0 {
		return Solution{Hidden: relation.NewNameSet(), Privatized: relation.NewNameSet()}, 0, nil
	}

	attrs := p.Attributes()
	attrIdx := make(map[string]int, len(attrs))
	nVars := 0
	for _, a := range attrs {
		attrIdx[a] = nVars
		nVars++
	}
	rIdx := make(map[[2]int]int)
	wIdx := make(map[int]int)
	for mi, m := range p.Modules {
		if m.Public {
			wIdx[mi] = nVars
			nVars++
			continue
		}
		for j := range m.SetList {
			rIdx[[2]int{mi, j}] = nVars
			nVars++
		}
	}

	prob := lp.NewProblem(nVars)
	for _, a := range attrs {
		prob.SetObjective(attrIdx[a], p.Costs.Of(a))
		prob.MustAddConstraint(map[int]float64{attrIdx[a]: 1}, lp.LE, 1)
	}
	for mi, m := range p.Modules {
		if m.Public {
			w := wIdx[mi]
			prob.SetObjective(w, m.PrivatizeCost)
			prob.MustAddConstraint(map[int]float64{w: 1}, lp.LE, 1)
			for _, a := range append(append([]string{}, m.Inputs...), m.Outputs...) {
				// (21): w_i - x_b >= 0.
				prob.MustAddConstraint(map[int]float64{w: 1, attrIdx[a]: -1}, lp.GE, 0)
			}
			continue
		}
		sum := make(map[int]float64)
		for j, req := range m.SetList {
			rv := rIdx[[2]int{mi, j}]
			sum[rv] = 1
			prob.MustAddConstraint(map[int]float64{rv: 1}, lp.LE, 1)
			// (20): x_b - r_ij >= 0, added in the option's own order so
			// every solve of one instance sums its rows alike.
			for _, a := range append(append([]string{}, req.In...), req.Out...) {
				prob.MustAddConstraint(map[int]float64{attrIdx[a]: 1, rv: -1}, lp.GE, 0)
			}
		}
		// (19).
		prob.MustAddConstraint(sum, lp.GE, 1)
	}

	lpSol, err := prob.SolveCtx(ctx)
	if err != nil {
		return Solution{}, 0, err
	}
	if lpSol.Status != lp.Optimal {
		return Solution{}, 0, fmt.Errorf("secureview: set LP %v", lpSol.Status)
	}
	threshold := 1/float64(lmax) - 1e-9
	hidden := make(relation.NameSet)
	for _, a := range attrs {
		if lpSol.X[attrIdx[a]] >= threshold {
			hidden.Add(a)
		}
	}
	return p.Complete(hidden), lpSol.Objective, nil
}
