package solve_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

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

// TestSessionWarmCache covers the warm-state store: round-trip, replacement,
// the dedicated hit/miss counters (which must not leak into the derivation
// Hits/Misses the CI smoke pins), and eviction under a byte budget.
func TestSessionWarmCache(t *testing.T) {
	ctx := context.Background()
	p := gen.Problem(gen.ProblemClasses()[0].Cfg, 1)
	base, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: secureview.Set})
	if err != nil {
		t.Fatal(err)
	}
	if base.Frontier == nil {
		t.Fatal("engine exported no frontier")
	}
	fp := solve.ProblemFingerprint(p, secureview.Set)

	sess := solve.NewSession()
	if sess.Warm(fp) != nil {
		t.Fatal("empty session returned a frontier")
	}
	sess.StoreWarm(fp, base.Frontier)
	if got := sess.Warm(fp); got != base.Frontier {
		t.Fatalf("Warm returned %p, want the stored frontier %p", got, base.Frontier)
	}
	st := sess.Stats()
	if st.WarmHits != 1 || st.WarmMisses != 1 {
		t.Fatalf("warm hits/misses = %d/%d, want 1/1", st.WarmHits, st.WarmMisses)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("warm traffic leaked into derivation counters: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("occupancy entries=%d bytes=%d after one store", st.Entries, st.Bytes)
	}

	// Replacing a fingerprint swaps the frontier without double accounting.
	warm, err := solve.Solve(ctx, "engine",
		&secureview.Problem{Modules: p.Modules, Costs: editCosts(p, 1)},
		solve.Options{Variant: secureview.Set, Resume: base.Frontier})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Stats().Bytes
	sess.StoreWarm(fp, warm.Frontier)
	sess.StoreWarm(fp, warm.Frontier)
	after := sess.Stats()
	if after.Entries != 1 {
		t.Fatalf("replacement grew entries to %d", after.Entries)
	}
	if diff := after.Bytes - before; diff > warm.Frontier.MemSize() {
		t.Fatalf("replacement double-accounted: bytes grew %d", diff)
	}
	if got := sess.Warm(fp); got != warm.Frontier {
		t.Fatal("replacement did not take")
	}

	// A budget far below the frontier's size evicts it immediately; the
	// next lookup is a clean miss (cold-solve fallback for callers).
	tiny := solve.NewSessionBytes(64)
	tiny.StoreWarm(fp, base.Frontier)
	if got := tiny.Warm(fp); got != nil {
		t.Fatal("64-byte budget retained a frontier bigger than itself")
	}
	tst := tiny.Stats()
	if tst.Evictions == 0 || tst.Bytes > tst.MaxBytes {
		t.Fatalf("tiny session stats %+v", tst)
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
	fresh, err := secureview.DeriveCardProblem(it.W, it.Gamma, edited, it.PrivatizeCosts)
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
		dp, err := secureview.DeriveCardProblem(it.W, it.Gamma+1, edited, it.PrivatizeCosts)
		if err != nil {
			t.Fatalf("session derived at Γ+1 where direct derivation fails: %v", err)
		}
		_ = dp
	}
	if st := sess.Stats(); st.DeltaDerives != 1 {
		t.Fatalf("gamma change was delta-derived (deltaDerives=%d)", st.DeltaDerives)
	}
}

// TestEngineWarmResumeMatchesCold: per generated class, a warm re-solve
// after a cost-only edit must return the identical (cost, lex) optimum a
// cold solve does, report Resumed, and keep the candidate-space accounting.
func TestEngineWarmResumeMatchesCold(t *testing.T) {
	ctx := context.Background()
	eng, _ := solve.Get("engine")
	for _, pc := range gen.ProblemClasses() {
		p := gen.Problem(pc.Cfg, 3)
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			if eng.Supports(p, v) != nil {
				continue
			}
			name := fmt.Sprintf("%s/%s", pc.Name, v)
			base, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: v})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if base.Frontier == nil || base.Resumed {
				t.Fatalf("%s: cold run frontier=%v resumed=%v", name, base.Frontier, base.Resumed)
			}
			ep := &secureview.Problem{Modules: p.Modules, Costs: editCosts(p, 2)}
			cold, err := solve.Solve(ctx, "engine", ep, solve.Options{Variant: v})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm, err := solve.Solve(ctx, "engine", ep,
				solve.Options{Variant: v, Resume: base.Frontier})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !warm.Resumed {
				t.Fatalf("%s: warm solve did not resume", name)
			}
			if !warm.Solution.Hidden.Equal(cold.Solution.Hidden) || !within(warm.Cost, cold.Cost) {
				t.Fatalf("%s: warm optimum %v (%g) != cold %v (%g)", name,
					warm.Solution.Hidden.Sorted(), warm.Cost, cold.Solution.Hidden.Sorted(), cold.Cost)
			}
			space := 1 << len(ep.UsefulAttributes(v))
			if warm.Counters.Checked+warm.Counters.Pruned != space {
				t.Fatalf("%s: warm Checked %d + Pruned %d != %d", name,
					warm.Counters.Checked, warm.Counters.Pruned, space)
			}
			if warm.Counters.ResumedSafe+warm.Counters.ResumedUnsafe+warm.Counters.MemoHits == 0 {
				t.Fatalf("%s: resume imported nothing (%+v)", name, warm.Counters)
			}
		}
	}
}

// TestSessionWarmConcurrent hammers the warm cache from many goroutines
// under a small budget — the race detector owns the assertions; the test
// itself only checks the byte accounting never goes negative or over
// budget.
func TestSessionWarmConcurrent(t *testing.T) {
	ctx := context.Background()
	p := gen.Problem(gen.ProblemClasses()[0].Cfg, 1)
	base, err := solve.Solve(ctx, "engine", p, solve.Options{Variant: secureview.Set})
	if err != nil {
		t.Fatal(err)
	}
	sess := solve.NewSessionBytes(4 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := fmt.Sprintf("fp-%d", (g+i)%12)
				if i%3 == 0 {
					sess.StoreWarm(fp, base.Frontier)
				} else {
					sess.Warm(fp)
				}
			}
		}(g)
	}
	wg.Wait()
	st := sess.Stats()
	if st.Bytes < 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("byte accounting off after concurrent warm traffic: %+v", st)
	}
}
