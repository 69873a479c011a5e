package solve

// approx.go is the certified approximation tier: solvers that route a
// Secure-View instance through the forward reductions of
// internal/reductions onto classical weighted set cover / label cover, run
// the combopt approximation algorithms there, and pull the cover back. They
// exist for the scale regime the exact tier declares itself out of — mega
// workflows whose useful-attribute universe is far beyond 2^k enumeration —
// and every result carries a certificate that is sound BY CONSTRUCTION
// relative to the reported lower bound: Result.Cost ≤ Bound.Factor ×
// Bound.LP always holds, so the differential harness can assert it on
// instances where no exact optimum will ever be known.
//
// The portfolio meta-solver runs a fixed plan: the exact tier under a probe
// budget, then the certified tier. The first proven optimum is the answer;
// when nobody proves optimality (the mega regime), the cheapest certified
// result wins.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"secureview/internal/reductions"
	"secureview/internal/secureview"
)

func init() {
	Register(setCoverApproxSolver{})
	Register(labelCoverApproxSolver{})
	Register(portfolioSolver{})
}

// setCoverApproxSolver reduces to weighted set cover (one universe element
// per private module, one weighted set per requirement-option realization)
// and runs the weighted greedy. The pulled-back solution costs at most
// H(d)·μ times the reported lower bound — the set-cover LP optimum divided
// by the charge multiplicity μ when the simplex finishes in time, the
// dual-fitting bound coverWeight/(H(d)·μ) otherwise.
type setCoverApproxSolver struct{}

func (setCoverApproxSolver) Name() string { return "approx-setcover" }

func (setCoverApproxSolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Certified: true,
		Factor: "H(d)·μ vs set-cover LP"}
}

func (s setCoverApproxSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("approx-setcover", p, v)
}

func (setCoverApproxSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	inst, err := reductions.ToSetCover(p, opts.Variant)
	if err != nil {
		return Result{Solver: "approx-setcover", Variant: opts.Variant}, err
	}
	cover, err := inst.SC.GreedyCtx(ctx)
	if err != nil {
		return Result{Solver: "approx-setcover", Variant: opts.Variant}, err
	}
	coverWeight := inst.SC.CostOf(cover)
	// Prefer the LP lower bound (tighter); fall back to dual fitting when
	// the simplex is cancelled or the instance degenerates. Either way
	// pull-back cost ≤ coverWeight ≤ Factor × bound.
	bound, lbErr := inst.LowerBoundCtx(ctx)
	if lbErr != nil {
		if err := ctx.Err(); err != nil {
			return Result{Solver: "approx-setcover", Variant: opts.Variant}, err
		}
		bound = inst.DualBound(coverWeight)
	}
	sol := inst.PullBack(cover)
	return finish("approx-setcover", p, opts.Variant, sol, false,
		Bound{LP: bound, Factor: inst.Factor(),
			Theorem: "Chvátal dual fitting × μ-charging (Theorem 7 machinery)"},
		Counters{Checked: len(inst.SC.Sets)}), nil
}

// labelCoverApproxSolver reduces an all-private set-constraint instance to
// a two-vertex weighted label cover (labels = option input/output parts)
// and runs the weighted greedy assignment. The pulled-back solution costs
// at most μ times the reported lower bound Σ_i min_j c(option j)/μ — the
// Theorem 7 charging argument in label-cover form.
type labelCoverApproxSolver struct{}

func (labelCoverApproxSolver) Name() string { return "approx-labelcover" }

func (labelCoverApproxSolver) Capabilities() Capabilities {
	return Capabilities{Set: true, Certified: true, AllPrivateOnly: true,
		Factor: "μ vs per-module minimum"}
}

func (s labelCoverApproxSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("approx-labelcover", p, v)
}

func (labelCoverApproxSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	inst, err := reductions.ToLabelCover(p)
	if err != nil {
		return Result{Solver: "approx-labelcover", Variant: opts.Variant}, err
	}
	a, err := inst.LC.GreedyAssignmentCtx(ctx)
	if err != nil {
		return Result{Solver: "approx-labelcover", Variant: opts.Variant}, err
	}
	sol := inst.PullBack(a)
	return finish("approx-labelcover", p, opts.Variant, sol, false,
		Bound{LP: inst.LowerBound, Factor: float64(inst.Mult),
			Theorem: "Theorem 7 charging via label cover"},
		Counters{Checked: len(inst.LC.Edges)}), nil
}

// portfolioSolver runs a fixed plan of registered solvers, one after
// another on the caller's goroutine: a static algorithm-selection schedule
// (Rice, 1976). First the exact tier, each step with its node budget
// clamped to portfolioProbeNodes; a proven optimum ends the plan. Then the
// certified tier; of its results (and any partial exact incumbents) the
// cheapest certified one wins, else the cheapest feasible one, names
// breaking cost ties. A step runs only when its solver supports the
// instance. Registered solvers outside the plan never run.
//
// The clamp keeps an exact step from grinding out its full default budget
// on a mega instance before the approximation tier gets its turn. It is
// orders of magnitude above what the small scenario classes need to prove
// optimality, so there the answer is the exact tier's optimum.
type portfolioSolver struct{}

// portfolioProbeNodes clamps the node budget of the portfolio's exact
// steps (see portfolioSolver).
const portfolioProbeNodes = 1 << 16

// portfolioPlan is the portfolio's schedule: the exact tier, whose steps
// run under the probe budget, then the certified tier.
var portfolioPlan = []struct {
	solver string
	probe  bool
}{
	{"bb", true}, {"exact", true}, {"engine", true},
	{"approx-labelcover", false}, {"approx-setcover", false}, {"lp", false}, {"greedy", false},
}

func (portfolioSolver) Name() string { return "portfolio" }

func (portfolioSolver) Capabilities() Capabilities {
	return Capabilities{Cardinality: true, Set: true, Certified: true,
		Factor: "best inner certificate (1 when an exact solver finishes)"}
}

// Supports accepts every valid instance of either variant: greedy, the
// plan's last step, has no structural limits.
func (s portfolioSolver) Supports(p *secureview.Problem, v secureview.Variant) error {
	return s.Capabilities().check("portfolio", p, v)
}

func (portfolioSolver) Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error) {
	opts = opts.withDefaults()
	better := func(a, b Result) bool { // does a beat the incumbent b?
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Solver < b.Solver
	}
	var bestCertified, bestFeasible *Result
	var lastErr error
	for _, step := range portfolioPlan {
		if ctx.Err() != nil {
			break
		}
		s, ok := Get(step.solver)
		if !ok || s.Supports(p, opts.Variant) != nil {
			continue
		}
		stepOpts := opts
		if step.probe {
			stepOpts.NodeBudget = min(stepOpts.NodeBudget, portfolioProbeNodes)
		}
		res, err := s.Solve(ctx, p, stepOpts)
		if err == nil && res.Optimal {
			res.Solver = "portfolio/" + res.Solver
			return res, nil
		}
		if err != nil && !res.Partial {
			// Keep the most informative error: anything beats nothing, and a
			// real failure beats routine budget/deadline exhaustion.
			routine := errors.Is(err, secureview.ErrNodeBudget) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
			if lastErr == nil || !routine {
				lastErr = fmt.Errorf("portfolio %s: %w", step.solver, err)
			}
			continue
		}
		if !p.Feasible(res.Solution, opts.Variant) {
			continue
		}
		if res.Bound.Factor > 0 && (bestCertified == nil || better(res, *bestCertified)) {
			bestCertified = &res
		}
		if bestFeasible == nil || better(res, *bestFeasible) {
			bestFeasible = &res
		}
	}
	best := bestCertified
	if best == nil {
		best = bestFeasible
	}
	switch {
	case best != nil:
		res := *best
		res.Solver = "portfolio/" + res.Solver
		return res, nil
	case ctx.Err() != nil:
		// The caller's own context died and nothing finished: report that,
		// not whichever step's budget error came last.
		return Result{Solver: "portfolio", Variant: opts.Variant}, ctx.Err()
	case lastErr != nil:
		return Result{Solver: "portfolio", Variant: opts.Variant}, lastErr
	default:
		return Result{Solver: "portfolio", Variant: opts.Variant},
			fmt.Errorf("solve: portfolio found no feasible solution")
	}
}

// CertifiedGap returns Cost − Factor×LP for a certified result (and +Inf
// for an uncertified one). The approximation tier guarantees the gap is
// ≤ 0 up to float slack; the differential harness and the solver tests
// assert exactly that.
func CertifiedGap(r Result) float64 {
	if r.Bound.Factor <= 0 {
		return math.Inf(1)
	}
	return r.Cost - r.Bound.Factor*r.Bound.LP
}
