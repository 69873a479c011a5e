package solve_test

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secureview/internal/gen"
	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

func tinyInstance(t testing.TB, seed int64) *gen.Instance {
	t.Helper()
	it, err := gen.New(gen.Config{Topology: gen.Chain, Modules: 2, FanIn: 1, FanOut: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// TestSessionEvictionStaysUnderBudget drives 100+ distinct workflows
// through a byte-capped session and asserts the accounted size never
// exceeds the budget, eviction actually fires, and an evicted fingerprint
// re-derives to an identical problem.
func TestSessionEvictionStaysUnderBudget(t *testing.T) {
	const capBytes = 16 << 10
	sess := solve.NewSessionBytes(capBytes)
	const n = 110
	for seed := int64(0); seed < n; seed++ {
		it := tinyInstance(t, seed)
		p, err := sess.Problem(context.Background(), it.W, secureview.Set,
			it.Gamma, it.Costs, it.PrivatizeCosts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p == nil {
			t.Fatalf("seed %d: nil problem", seed)
		}
		st := sess.Stats()
		if st.Bytes > capBytes {
			t.Fatalf("seed %d: session holds %d bytes, budget %d", seed, st.Bytes, capBytes)
		}
		if st.MaxBytes != capBytes {
			t.Fatalf("MaxBytes = %d, want %d", st.MaxBytes, capBytes)
		}
	}
	st := sess.Stats()
	if st.Misses != n {
		t.Fatalf("misses = %d, want %d (distinct workflows)", st.Misses, n)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions across %d workflows under a %d-byte budget (bytes=%d entries=%d)",
			n, capBytes, st.Bytes, st.Entries)
	}
	if st.Entries >= n {
		t.Fatalf("entries = %d, want fewer than %d after eviction", st.Entries, n)
	}

	// Seed 0 was evicted long ago: re-requesting it re-derives (a miss,
	// not a hit) and reproduces the same problem content.
	it := tinyInstance(t, 0)
	direct, err := it.Derive(secureview.Set)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sess.Problem(context.Background(), it.W, secureview.Set,
		it.Gamma, it.Costs, it.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := sess.Stats()
	if st2.Misses != st.Misses+1 || st2.Hits != st.Hits {
		t.Fatalf("evicted re-request: hits %d→%d misses %d→%d, want one more miss",
			st.Hits, st2.Hits, st.Misses, st2.Misses)
	}
	if gen.ProblemFingerprint(p) != gen.ProblemFingerprint(direct) {
		t.Fatal("re-derived problem differs from the direct derivation")
	}
}

// TestSessionEvictionSparesHotProblem: an entry in continuous use is
// touched back to the front of the LRU list on every hit, so it survives
// while other workflows push the session over its byte budget.
func TestSessionEvictionSparesHotProblem(t *testing.T) {
	const capBytes = 4 << 10
	sess := solve.NewSessionBytes(capBytes)
	ctx := context.Background()
	hot := tinyInstance(t, 1000)
	first, err := sess.Problem(ctx, hot.W, secureview.Set, hot.Gamma, hot.Costs, hot.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2000); seed < 2010; seed++ {
		it := tinyInstance(t, seed)
		if _, err := sess.Problem(ctx, it.W, secureview.Set, it.Gamma, it.Costs, it.PrivatizeCosts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := sess.Problem(ctx, hot.W, secureview.Set, hot.Gamma, hot.Costs, hot.PrivatizeCosts)
		if err != nil || again != first {
			t.Fatalf("hot entry evicted while continuously used (err=%v, shared=%v)", err, again == first)
		}
		if st := sess.Stats(); st.Bytes > capBytes {
			t.Fatalf("seed %d: %d bytes over the %d budget", seed, st.Bytes, capBytes)
		}
	}
	if st := sess.Stats(); st.Evictions == 0 {
		t.Fatalf("10 workflows never pushed the session over its budget: %+v", st)
	}
}

// TestSessionUnboundedNeverEvicts pins the historical NewSession behavior.
func TestSessionUnboundedNeverEvicts(t *testing.T) {
	sess := solve.NewSession()
	for seed := int64(0); seed < 30; seed++ {
		it := tinyInstance(t, seed)
		if _, err := sess.Problem(context.Background(), it.W, secureview.Set,
			it.Gamma, it.Costs, it.PrivatizeCosts); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.Evictions != 0 || st.Entries != 30 || st.MaxBytes != 0 {
		t.Fatalf("unbounded session evicted: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatal("unbounded session does not account sizes")
	}
}

// countdownCtx is live for the first n Err() calls and cancelled after:
// it deterministically reproduces a caller whose deadline dies between the
// Session's entry check and the start of derivation.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestSessionCancelledMissDoesNotPoison: a caller cancelled inside the miss
// path (after the entry was created, before derivation) must return its
// context error WITHOUT caching it — the next caller derives normally.
func TestSessionCancelledMissDoesNotPoison(t *testing.T) {
	it := tinyInstance(t, 7)
	sess := solve.NewSession()

	ctx := &countdownCtx{Context: context.Background(), n: 1}
	if _, err := sess.Problem(ctx, it.W, secureview.Set,
		it.Gamma, it.Costs, it.PrivatizeCosts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled miss returned %v, want context.Canceled", err)
	}
	if st := sess.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("cancelled miss counted in stats: %+v", st)
	}
	// The abandoned entry is discarded, not left as an unevictable zombie.
	if st := sess.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled miss left %d entries behind", st.Entries)
	}

	// The entry is not poisoned: a healthy caller derives and succeeds.
	p, err := sess.Problem(context.Background(), it.W, secureview.Set,
		it.Gamma, it.Costs, it.PrivatizeCosts)
	if err != nil {
		t.Fatalf("entry poisoned by the cancelled caller: %v", err)
	}
	if p == nil {
		t.Fatal("nil problem after retry")
	}
	if st := sess.Stats(); st.Misses != 1 {
		t.Fatalf("retry did not derive: %+v", st)
	}
	// And the successful derivation IS cached for everyone after.
	again, err := sess.Problem(context.Background(), it.W, secureview.Set,
		it.Gamma, it.Costs, it.PrivatizeCosts)
	if err != nil || again != p {
		t.Fatalf("post-retry request not served from cache (err=%v)", err)
	}
}

// TestSessionCancelledBeforeLookup: the fast pre-check still applies.
func TestSessionCancelledBeforeLookup(t *testing.T) {
	it := tinyInstance(t, 8)
	sess := solve.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Problem(ctx, it.W, secureview.Set,
		it.Gamma, it.Costs, it.PrivatizeCosts); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := sess.Stats(); st.Entries != 0 {
		t.Fatalf("dead-on-arrival request created an entry: %+v", st)
	}
}

// editCosts returns a deterministic cost-only rewrite of p: every attribute
// gets a new positive cost derived from its rank, shuffling which optima are
// cheap without touching structure.
func editCosts(p *secureview.Problem, round int) privacy.Costs {
	names := make([]string, 0, len(p.Costs))
	for a := range p.Costs {
		names = append(names, a)
	}
	sort.Strings(names)
	out := make(privacy.Costs, len(names))
	for i, a := range names {
		out[a] = float64((i*7+round*3)%5) + 0.5
	}
	return out
}

// TestProblemFingerprintCostOnly pins the warm-start key contract: the
// fingerprint ignores costs (so cost-only edits chain through one warm
// entry) but separates variants and structures.
func TestProblemFingerprintCostOnly(t *testing.T) {
	p := gen.Problem(gen.ProblemClasses()[0].Cfg, 1)
	fp := solve.ProblemFingerprint(p, secureview.Set)
	if len(fp) != 64 || strings.ContainsAny(fp, "{}\"\n") {
		t.Fatalf("fingerprint not a hex digest: %q", fp)
	}

	edited := &secureview.Problem{Modules: p.Modules, Costs: editCosts(p, 1)}
	if got := solve.ProblemFingerprint(edited, secureview.Set); got != fp {
		t.Fatalf("cost-only edit changed the fingerprint: %s vs %s", got, fp)
	}
	if got := solve.ProblemFingerprint(p, secureview.Cardinality); got == fp {
		t.Fatal("variants share a fingerprint")
	}
	other := gen.Problem(gen.ProblemClasses()[0].Cfg, 2)
	if got := solve.ProblemFingerprint(other, secureview.Set); got == fp {
		t.Fatal("distinct structures share a fingerprint")
	}
}

// TestSessionDeltaDerive: a second derivation of the same workflow under new
// costs must be served by re-costing the cached problem (DeltaDerives=1),
// and the re-costed problem must be indistinguishable from a fresh
// derivation with those costs.
func TestSessionDeltaDerive(t *testing.T) {
	ctx := context.Background()
	it := tinyInstance(t, 7)
	sess := solve.NewSession()
	if _, err := sess.Problem(ctx, it.W, secureview.Cardinality,
		it.Gamma, it.Costs, it.PrivatizeCosts); err != nil {
		t.Fatal(err)
	}
	edited := make(privacy.Costs, len(it.Costs))
	for i, a := range it.W.Schema().Names() {
		edited[a] = float64((i*5)%3) + 1.5
	}
	got, err := sess.Problem(ctx, it.W, secureview.Cardinality,
		it.Gamma, edited, it.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.DeltaDerives != 1 || st.Misses != 2 {
		t.Fatalf("deltaDerives=%d misses=%d, want 1/2 (cost-only edit must re-cost, and still count as a miss)",
			st.DeltaDerives, st.Misses)
	}
	fresh, err := secureview.Derive(it.W, secureview.Cardinality, secureview.DeriveOptions{
		Gamma: it.Gamma, Costs: edited, PrivatizeCosts: it.PrivatizeCosts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen.ProblemFingerprint(got) != gen.ProblemFingerprint(fresh) {
		t.Fatal("delta-derived problem differs from a fresh derivation under the same costs")
	}

	// A structural change (different Γ) must NOT take the delta path. The
	// derivation may legitimately fail (infeasible at the higher Γ) — a
	// delta hit would instead have silently returned the cached Γ problem.
	if _, err := sess.Problem(ctx, it.W, secureview.Cardinality,
		it.Gamma+1, edited, it.PrivatizeCosts); err == nil {
		if _, err := secureview.Derive(it.W, secureview.Cardinality, secureview.DeriveOptions{
			Gamma: it.Gamma + 1, Costs: edited, PrivatizeCosts: it.PrivatizeCosts,
		}); err != nil {
			t.Fatalf("session derived at Γ+1 where direct derivation fails: %v", err)
		}
	}
	if st := sess.Stats(); st.DeltaDerives != 1 {
		t.Fatalf("gamma change was delta-derived (deltaDerives=%d)", st.DeltaDerives)
	}
}

// TestDeltaSharesModuleSpecs: a cost-only edit shares its source's module
// specs unless a public module's privatization cost changes. Such an edit
// gets its own specs with the new cost, and the source keeps its old one.
func TestDeltaSharesModuleSpecs(t *testing.T) {
	ctx := context.Background()
	sess := solve.NewSession()
	it := tinyInstance(t, 7)
	src, err := sess.Problem(ctx, it.W, secureview.Set, it.Gamma, it.Costs, it.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	edited := make(privacy.Costs, len(it.Costs))
	for a, c := range it.Costs {
		edited[a] = c + 1
	}
	got, err := sess.Problem(ctx, it.W, secureview.Set, it.Gamma, edited, it.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.DeltaDerives != 1 {
		t.Fatalf("deltaDerives = %d, want 1", st.DeltaDerives)
	}
	if &got.Modules[0] != &src.Modules[0] {
		t.Fatal("a cost-only edit of a private-only problem copied its module specs")
	}

	var pub *gen.Instance
	for seed := int64(0); pub == nil; seed++ {
		it, err := gen.New(gen.Config{Topology: gen.Chain, Modules: 3, FanIn: 1, FanOut: 1, PublicFrac: 0.5}, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range it.W.Modules() {
			if m.Visibility() == module.Public {
				pub = it
			}
		}
	}
	src, err = sess.Problem(ctx, pub.W, secureview.Set, pub.Gamma, pub.Costs, pub.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	edited = make(privacy.Costs, len(pub.Costs))
	for a, c := range pub.Costs {
		edited[a] = c + 1
	}
	got, err = sess.Problem(ctx, pub.W, secureview.Set, pub.Gamma, edited, pub.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Modules[0] != &src.Modules[0] {
		t.Fatal("an edit that keeps every privatization cost copied the module specs")
	}
	i := slices.IndexFunc(src.Modules, func(m secureview.ModuleSpec) bool { return m.Public })
	old := src.Modules[i].PrivatizeCost
	privatize := maps.Clone(pub.PrivatizeCosts)
	if privatize == nil {
		privatize = map[string]float64{}
	}
	privatize[src.Modules[i].Name] = old + 2
	got, err = sess.Problem(ctx, pub.W, secureview.Set, pub.Gamma, pub.Costs, privatize)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.DeltaDerives != 3 {
		t.Fatalf("deltaDerives = %d, want 3", st.DeltaDerives)
	}
	if &got.Modules[0] == &src.Modules[0] || got.Modules[i].PrivatizeCost != old+2 || src.Modules[i].PrivatizeCost != old {
		t.Fatalf("privatization edit: shared=%v, new cost %v (want %v), source cost %v (want %v)",
			&got.Modules[0] == &src.Modules[0], got.Modules[i].PrivatizeCost, old+2, src.Modules[i].PrivatizeCost, old)
	}
}

// TestSessionWarmCache pins the retired warm cache's inert surface, which
// the served-path benchmark still calls: Warm returns nil and counts
// nothing, and StoreWarm stores nothing, so no warm traffic reaches the
// derivation counters or the byte accounting.
func TestSessionWarmCache(t *testing.T) {
	ctx := context.Background()
	p := gen.Problem(gen.ProblemClasses()[0].Cfg, 1)
	res, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: secureview.Set})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frontier != nil || res.Resumed || res.Counters.MemoHits != 0 {
		t.Fatalf("engine result carries warm state: frontier=%v resumed=%v memoHits=%d",
			res.Frontier, res.Resumed, res.Counters.MemoHits)
	}
	fp := solve.ProblemFingerprint(p, secureview.Set)
	sess := solve.NewSessionBytes(1 << 20)
	sess.StoreWarm(fp, res.Frontier)
	sess.StoreWarm(fp, &solve.RetiredFrontier{})
	if f := sess.Warm(fp); f != nil {
		t.Fatalf("Warm returned %p, want nil", f)
	}
	if st := sess.Stats(); st != (solve.SessionStats{MaxBytes: 1 << 20}) {
		t.Fatalf("warm calls changed the session: %+v", st)
	}
}

// TestSolveBatchEmpty: an empty batch short-circuits — no workers, no
// allocation, immediate empty result.
func TestSolveBatchEmpty(t *testing.T) {
	done := make(chan []solve.JobResult, 1)
	go func() { done <- solve.SolveBatch(context.Background(), nil, 8) }()
	select {
	case res := <-done:
		if len(res) != 0 {
			t.Fatalf("empty batch returned %d results", len(res))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty batch did not return")
	}
	if res := solve.SolveBatch(context.Background(), []solve.Job{}, 0); len(res) != 0 {
		t.Fatalf("empty slice batch returned %d results", len(res))
	}
}

// TestSolveBatchMoreWorkersThanJobs: the pool clamps to the job count and
// still returns complete, ordered results.
func TestSolveBatchMoreWorkersThanJobs(t *testing.T) {
	p := gen.Problem(gen.ProblemConfig{Modules: 4}, 1)
	jobs := []solve.Job{
		{Name: "a", Problem: p, Solver: "exact", Options: solve.Options{Variant: secureview.Set}},
		{Name: "b", Problem: p, Solver: "greedy", Options: solve.Options{Variant: secureview.Set}},
	}
	results := solve.SolveBatch(context.Background(), jobs, 64)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Job.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: %q", i, r.Job.Name)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.Name, r.Err)
		}
		if !p.Feasible(r.Result.Solution, secureview.Set) {
			t.Fatalf("%s: infeasible solution", r.Job.Name)
		}
	}
}
