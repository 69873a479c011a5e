package secureview

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"secureview/internal/lp"
	"secureview/internal/relation"
)

// LPForm selects which integer program the LP relaxation is built from.
type LPForm int

const (
	// FullForm is the complete IP of Figure 3, with the summation coupling
	// in constraints (4)/(5) and the r-capping constraints (6)/(7).
	FullForm LPForm = iota
	// WeakForm drops constraints (6)/(7) and removes the summation from
	// (4)/(5). The paper (appendix B.4.1) shows this relaxation has
	// unbounded / Ω(n) integrality gaps; the E15 ablation reproduces that.
	WeakForm
)

// cardLPIndex lays out LP variable indices for the Figure 3 program.
type cardLPIndex struct {
	attrs   []string
	attrIdx map[string]int
	nVars   int
	r       map[[2]int]int // (module i, option j) -> var
	y       map[[3]int]int // (module i, option j, input position) -> var
	z       map[[3]int]int // (module i, option j, output position) -> var
	mods    []int          // indices into p.Modules of private modules
}

func buildCardIndex(p *Problem, form LPForm) *cardLPIndex {
	idx := &cardLPIndex{
		attrIdx: make(map[string]int),
		r:       make(map[[2]int]int),
		y:       make(map[[3]int]int),
		z:       make(map[[3]int]int),
	}
	idx.attrs = p.Attributes()
	for i, a := range idx.attrs {
		idx.attrIdx[a] = idx.nVars
		_ = i
		idx.nVars++
	}
	for mi, m := range p.Modules {
		if m.Public {
			continue
		}
		idx.mods = append(idx.mods, mi)
		for j := range m.CardList {
			idx.r[[2]int{mi, j}] = idx.nVars
			idx.nVars++
			for bi := range m.Inputs {
				idx.y[[3]int{mi, j, bi}] = idx.nVars
				idx.nVars++
			}
			for bi := range m.Outputs {
				idx.z[[3]int{mi, j, bi}] = idx.nVars
				idx.nVars++
			}
		}
	}
	return idx
}

// buildCardLP constructs the LP relaxation of the Figure 3 IP (or of the
// weakened variant, for the integrality-gap ablation).
func buildCardLP(p *Problem, form LPForm) (*lp.Problem, *cardLPIndex) {
	idx := buildCardIndex(p, form)
	prob := lp.NewProblem(idx.nVars)
	for _, a := range idx.attrs {
		v := idx.attrIdx[a]
		prob.SetObjective(v, p.Costs.Of(a))
		prob.MustAddConstraint(map[int]float64{v: 1}, lp.LE, 1)
	}
	for _, mi := range idx.mods {
		m := p.Modules[mi]
		// (1): Σ_j r_ij >= 1, and r_ij <= 1.
		sum := make(map[int]float64)
		for j := range m.CardList {
			rv := idx.r[[2]int{mi, j}]
			sum[rv] = 1
			prob.MustAddConstraint(map[int]float64{rv: 1}, lp.LE, 1)
		}
		prob.MustAddConstraint(sum, lp.GE, 1)
		for j, req := range m.CardList {
			rv := idx.r[[2]int{mi, j}]
			// (2): Σ_b y_bij >= α_ij r_ij.
			c2 := make(map[int]float64)
			for bi := range m.Inputs {
				c2[idx.y[[3]int{mi, j, bi}]] = 1
			}
			c2[rv] = -float64(req.Alpha)
			prob.MustAddConstraint(c2, lp.GE, 0)
			// (3): Σ_b z_bij >= β_ij r_ij.
			c3 := make(map[int]float64)
			for bi := range m.Outputs {
				c3[idx.z[[3]int{mi, j, bi}]] = 1
			}
			c3[rv] = -float64(req.Beta)
			prob.MustAddConstraint(c3, lp.GE, 0)
			if form == FullForm {
				// (6)/(7): y_bij <= r_ij, z_bij <= r_ij.
				for bi := range m.Inputs {
					prob.MustAddConstraint(map[int]float64{idx.y[[3]int{mi, j, bi}]: 1, rv: -1}, lp.LE, 0)
				}
				for bi := range m.Outputs {
					prob.MustAddConstraint(map[int]float64{idx.z[[3]int{mi, j, bi}]: 1, rv: -1}, lp.LE, 0)
				}
			} else {
				// Weak form: per-option y_bij <= x_b instead of the sum.
				for bi, b := range m.Inputs {
					prob.MustAddConstraint(map[int]float64{idx.y[[3]int{mi, j, bi}]: 1, idx.attrIdx[b]: -1}, lp.LE, 0)
				}
				for bi, b := range m.Outputs {
					prob.MustAddConstraint(map[int]float64{idx.z[[3]int{mi, j, bi}]: 1, idx.attrIdx[b]: -1}, lp.LE, 0)
				}
			}
		}
		if form == FullForm {
			// (4): Σ_j y_bij <= x_b for each input b of mi.
			for bi, b := range m.Inputs {
				c4 := make(map[int]float64)
				for j := range m.CardList {
					c4[idx.y[[3]int{mi, j, bi}]] = 1
				}
				c4[idx.attrIdx[b]] = -1
				prob.MustAddConstraint(c4, lp.LE, 0)
			}
			// (5): Σ_j z_bij <= x_b for each output b of mi.
			for bi, b := range m.Outputs {
				c5 := make(map[int]float64)
				for j := range m.CardList {
					c5[idx.z[[3]int{mi, j, bi}]] = 1
				}
				c5[idx.attrIdx[b]] = -1
				prob.MustAddConstraint(c5, lp.LE, 0)
			}
		}
	}
	return prob, idx
}

// CardinalityLPValue solves the LP relaxation and returns its optimum
// value. Used directly by the integrality-gap ablation (E15).
func CardinalityLPValue(p *Problem, form LPForm) (float64, error) {
	if err := p.Validate(Cardinality); err != nil {
		return 0, err
	}
	prob, _ := buildCardLP(p, form)
	sol := prob.Solve()
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("secureview: cardinality LP %v", sol.Status)
	}
	return sol.Objective, nil
}

// RoundingOptions configures Algorithm 1.
type RoundingOptions struct {
	// Multiplier scales the inclusion probability min{1, Multiplier·x_b}.
	// Zero selects the paper's 16·ln n.
	Multiplier float64
	// Trials repeats the randomized rounding and keeps the cheapest
	// feasible outcome. Zero selects 1 (the paper's single shot).
	Trials int
	// Rng supplies randomness; nil selects a fixed-seed source so results
	// are reproducible by default.
	Rng *rand.Rand
}

// CardinalityLPRound implements Theorem 5's O(log n)-approximation: solve
// the LP relaxation of the Figure 3 IP, include each attribute with
// probability min{1, multiplier·x_b} (Algorithm 1 step 2), then repair any
// unsatisfied module with its cheapest option B^min (step 3), and finally
// apply the privatization closure. It returns the solution and the LP
// optimum (a lower bound on OPT, so cost/lpValue bounds the true ratio).
func CardinalityLPRound(p *Problem, opts RoundingOptions) (Solution, float64, error) {
	if err := p.Validate(Cardinality); err != nil {
		return Solution{}, 0, err
	}
	return CardinalityLPRoundCtx(context.Background(), p, opts)
}

// CardinalityLPRoundCtx is CardinalityLPRound with cancellation inside the
// simplex (polled every few dozen pivots) and between rounding trials. On
// expiry it returns ctx.Err() and, when at least one trial finished, the
// cheapest feasible rounding so far. p must pass p.Validate(Cardinality),
// as the solve registry's capability check guarantees.
func CardinalityLPRoundCtx(ctx context.Context, p *Problem, opts RoundingOptions) (Solution, float64, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, 0, err
	}
	prob, idx := buildCardLP(p, FullForm)
	lpSol, err := prob.SolveCtx(ctx)
	if err != nil {
		return Solution{}, 0, err
	}
	if lpSol.Status != lp.Optimal {
		return Solution{}, 0, fmt.Errorf("secureview: cardinality LP %v", lpSol.Status)
	}
	n := len(idx.mods)
	mult := opts.Multiplier
	if mult == 0 {
		mult = 16 * math.Log(math.Max(float64(n), 2))
	}
	trials := opts.Trials
	if trials == 0 {
		trials = 1
	}
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}

	var best Solution
	bestCost := math.Inf(1)
	for t := 0; t < trials; t++ {
		if err := ctx.Err(); err != nil {
			if bestCost < math.Inf(1) {
				return best, lpSol.Objective, err
			}
			return Solution{}, 0, err
		}
		hidden := make(relation.NameSet)
		for _, a := range idx.attrs {
			pInc := mult * lpSol.X[idx.attrIdx[a]]
			if pInc >= 1 || rng.Float64() < pInc {
				hidden.Add(a)
			}
		}
		// Step 3: repair unsatisfied modules with their cheapest option.
		for _, mi := range idx.mods {
			m := p.Modules[mi]
			if !m.Satisfied(hidden, Cardinality) {
				opt, _ := p.minCostOption(m, Cardinality)
				hidden = hidden.Union(opt)
			}
		}
		sol := p.Complete(hidden)
		if c := p.Cost(sol); c < bestCost {
			bestCost = c
			best = sol
		}
	}
	return best, lpSol.Objective, nil
}
