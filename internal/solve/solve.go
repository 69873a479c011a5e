// Package solve is the unified solver layer over the Secure-View code
// paths. The paper's optimization problem is solved in this repo by
// branch and bound over requirement options (ExactSetCtx) or attributes
// (ExactCardBBCtx), the greedy (γ+1)-approximation, the LP roundings of
// Theorems 5/6, the pruned subset-search engine of internal/search, and
// the set-cover and label-cover approximations reached through
// internal/reductions, each with its own signature. This package puts one
// interface in front of all of them:
//
//   - Solver: Solve(ctx, *secureview.Problem, Options) (Result, error),
//     with uniform node/time budgets, worker counts and rounding seeds, and
//     a Result carrying the solution, a bound certificate (the Theorem 6/7
//     approximation factors, the LP lower bound) and search counters.
//   - a registry keyed by solver name with per-(problem, variant)
//     capability checks, so callers enumerate what is applicable instead of
//     hard-coding call sites.
//   - Session: a fingerprint-keyed cache of derived problems, so repeated
//     requests against the same workflow share immutable state across
//     goroutines, and cost-only edits re-cost a cached problem instead of
//     re-deriving it.
//   - SolveBatch: a concurrent front-end sharding many (problem, solver)
//     jobs over a GOMAXPROCS pool with per-job deadlines.
//   - the portfolio meta-solver: a fixed plan over the registry, exact tier
//     first under a probe budget, then the certified approximation tier.
//
// Cancellation contract: every registered solver observes ctx within one
// pruning epoch (one search-tree node or candidate mask) and returns
// ctx.Err() on expiry. The exact solver additionally returns its best
// incumbent alongside the error, marked Result.Partial.
package solve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"secureview/internal/secureview"
)

// Options is the uniform solver configuration. The zero value is usable:
// defaults match the budgets the differential harness has always used.
type Options struct {
	// Variant selects the constraint encoding the solver runs against.
	Variant secureview.Variant
	// NodeBudget caps the leaves of the exact solver's search tree
	// (default 1<<22): the product of the private modules' option counts
	// for the set variant, 2^k for the cardinality variant, k the useful
	// attributes (so the default reaches k ≤ 22). A larger search is
	// refused before it starts, with an error wrapping
	// secureview.ErrNodeBudget and no incumbent; a search that starts runs
	// to the end or to the deadline.
	NodeBudget int
	// MaxAttrs is ignored: the cardinality variant's reach follows
	// NodeBudget.
	MaxAttrs int
	// Workers is the engine solver's worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Resume is ignored (see RetiredFrontier).
	Resume *RetiredFrontier
	// Seed seeds the randomized cardinality LP rounding (default 1).
	Seed int64
	// Trials repeats the randomized rounding, keeping the cheapest feasible
	// outcome (default 5).
	Trials int
	// Timeout bounds one Solve call (0 = none); it is applied by the
	// package-level Solve front door and by SolveBatch, per job.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.NodeBudget == 0 {
		o.NodeBudget = 1 << 22
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	return o
}

// Bound is the certificate a solver attaches to its result: what the
// returned cost is provably within.
type Bound struct {
	// LP is the LP-relaxation optimum when the solver computed one — a
	// lower bound on OPT (0 when not applicable).
	LP float64
	// Factor is the proven approximation factor relative to OPT: 1 for
	// exact solvers, ℓmax for the set-constraint rounding (Theorem 6), the
	// attribute multiplicity for greedy on all-private instances
	// (Theorem 7). Zero means no deterministic factor is certified (e.g.
	// the cardinality rounding's O(log n) guarantee holds w.h.p. only).
	Factor float64
	// Theorem names the paper result backing the certificate.
	Theorem string
}

// Counters reports how a solver spent its budget. An engine solve with
// more than one worker (Options.Workers 0 means GOMAXPROCS) reports
// Checked, Pruned and OraclePasses that depend on the schedule, since its
// workers test candidates speculatively; its answer does not. A
// single-worker engine solve replays its counters exactly.
type Counters struct {
	// Nodes counts exact-search tree nodes.
	Nodes int
	// Checked and Pruned are the engine solver's safety-test/pruning split
	// (Checked+Pruned = candidates in scope).
	Checked int
	// Pruned counts engine candidates eliminated without a safety test.
	Pruned int
	// OraclePasses counts engine oracle invocations: one per safety test,
	// so it equals Checked.
	OraclePasses int
	// MemoHits is always 0 (see RetiredFrontier).
	MemoHits int
}

// Result is a solver outcome.
type Result struct {
	// Solver and Variant echo what produced the result.
	Solver  string
	Variant secureview.Variant
	// Solution is the returned (hidden, privatized) pair; Cost its total
	// cost under the problem's cost assignment.
	Solution secureview.Solution
	Cost     float64
	// Optimal is true when the solver proved optimality.
	Optimal bool
	// Partial is true when the solution is a best-effort incumbent returned
	// alongside a deadline error (always feasible when present).
	Partial bool
	// Bound is the attached certificate.
	Bound Bound
	// Counters reports search effort.
	Counters Counters
	// Resumed is always false and Frontier always nil (see
	// RetiredFrontier).
	Resumed  bool
	Frontier *RetiredFrontier
}

// Capabilities declares what a solver can do, as data: which variants it
// accepts, whether it proves optimality or certifies an approximation
// factor, and the structural limits it imposes. Supports checks and the
// /v1/solvers endpoint both derive from this one declaration, so a solver
// cannot advertise one thing and enforce another.
type Capabilities struct {
	// Cardinality / Set report which constraint variants the solver accepts.
	Cardinality bool `json:"cardinality"`
	Set         bool `json:"set"`
	// Exact is true when the solver proves optimality on every instance it
	// accepts (modulo budget exhaustion, reported as a typed error).
	Exact bool `json:"exact"`
	// Certified is true when results carry a non-trivial Bound certificate
	// (Factor > 0) at least on the instances the capability check admits.
	Certified bool `json:"certified"`
	// AllPrivateOnly is true when the solver rejects instances with public
	// modules (its cost model has no privatization closure).
	AllPrivateOnly bool `json:"allPrivateOnly"`
	// MaxUniverse caps the useful-attribute count (0 = uncapped). Violations
	// are reported as a typed error wrapping secureview.ErrNodeBudget, so
	// harnesses treat "declared too big for this solver" like any other
	// budget exhaustion.
	MaxUniverse int `json:"maxUniverse,omitempty"`
	// Factor describes the certified approximation factor in prose ("1",
	// "H(d)·μ vs LP", ...), for display only.
	Factor string `json:"factor,omitempty"`
}

// check is the shared Supports implementation: validate the variant against
// the declaration, then the structural limits.
func (c Capabilities) check(name string, p *secureview.Problem, v secureview.Variant) error {
	switch v {
	case secureview.Cardinality:
		if !c.Cardinality {
			return fmt.Errorf("solve: %s does not handle the cardinality variant", name)
		}
	case secureview.Set:
		if !c.Set {
			return fmt.Errorf("solve: %s does not handle the set variant", name)
		}
	default:
		return fmt.Errorf("solve: unknown variant %v", v)
	}
	if err := p.Validate(v); err != nil {
		return err
	}
	if c.AllPrivateOnly {
		for _, m := range p.Modules {
			if m.Public {
				return fmt.Errorf("solve: %s requires an all-private instance (public module %q)", name, m.Name)
			}
		}
	}
	if c.MaxUniverse > 0 {
		if k := len(p.UsefulAttributes(v)); k > c.MaxUniverse {
			return fmt.Errorf("solve: %s universe %d exceeds %d attributes: %w",
				name, k, c.MaxUniverse, secureview.ErrNodeBudget)
		}
	}
	return nil
}

// Solver is one registered Secure-View solver.
type Solver interface {
	// Name is the registry key.
	Name() string
	// Capabilities declares variants, certification and structural limits.
	Capabilities() Capabilities
	// Supports reports whether the solver can handle (p, variant); a
	// non-nil error explains why not (wrong variant, public modules,
	// universe too large, ...). Implementations derive this from
	// Capabilities().check plus any instance-shape checks of their own.
	Supports(p *secureview.Problem, v secureview.Variant) error
	// Solve runs the solver on a problem Supports accepted: the
	// package-level Solve, For and the portfolio check Supports first, so
	// implementations need not validate p again. They observe ctx within
	// one pruning epoch and return ctx.Err() on expiry (with Result.Partial
	// set when an incumbent is available).
	Solve(ctx context.Context, p *secureview.Problem, opts Options) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a solver under its name; re-registering a name replaces the
// previous solver (tests use this to inject probes).
func Register(s Solver) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[s.Name()] = s
}

// Deregister removes a solver by name (tests use this to clean up injected
// probes). Removing an unknown name is a no-op.
func Deregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
}

// Get returns the named solver.
func Get(name string) (Solver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered solver names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Info pairs a solver name with its declared capabilities; it is the
// wire shape of /v1/solvers and the -solvers CLI listing.
type Info struct {
	Name         string       `json:"name"`
	Capabilities Capabilities `json:"capabilities"`
}

// Solvers returns every registered solver's Info, sorted by name.
func Solvers() []Info {
	names := Names()
	out := make([]Info, 0, len(names))
	for _, n := range names {
		if s, ok := Get(n); ok {
			out = append(out, Info{Name: n, Capabilities: s.Capabilities()})
		}
	}
	return out
}

// For returns, in name order, every registered solver that supports
// (p, variant).
func For(p *secureview.Problem, v secureview.Variant) []Solver {
	var out []Solver
	for _, n := range Names() {
		s, _ := Get(n)
		if s != nil && s.Supports(p, v) == nil {
			out = append(out, s)
		}
	}
	return out
}

// ErrUnsupported is matched (errors.Is) by Solve's error when the solver's
// capability check refused the problem: a wrong variant, an invalid
// problem, a public module or a universe the solver does not take.
var ErrUnsupported = errors.New("solve: problem not supported by the solver")

// unsupported wraps a Supports refusal: its text is the refusal's own, and
// errors.Is matches ErrUnsupported as well as whatever the refusal wraps
// (ErrNodeBudget for a universe limit).
type unsupported struct{ err error }

func (u unsupported) Error() string   { return u.err.Error() }
func (u unsupported) Unwrap() []error { return []error{ErrUnsupported, u.err} }

// Solve is the front door: it resolves the named solver, checks capability
// (a refusal matches ErrUnsupported), applies Options.Timeout as a context
// deadline, and runs it.
func Solve(ctx context.Context, solver string, p *secureview.Problem, opts Options) (Result, error) {
	s, ok := Get(solver)
	if !ok {
		return Result{}, fmt.Errorf("solve: unknown solver %q (have %v)", solver, Names())
	}
	if err := s.Supports(p, opts.Variant); err != nil {
		return Result{}, unsupported{err}
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	return s.Solve(ctx, p, opts)
}
