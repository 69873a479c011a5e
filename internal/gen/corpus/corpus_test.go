package corpus

import (
	"context"
	"reflect"
	"testing"
	"time"

	"secureview/internal/gen"
	"secureview/internal/gen/diff"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// TestCorpusCommitted checks the committed file's structural invariants:
// enough entries to be a corpus, fingerprint-deduped, and every entry
// regenerable to its recorded fingerprint and mining metrics.
func TestCorpusCommitted(t *testing.T) {
	entries := Entries()
	if len(entries) < 20 {
		t.Fatalf("committed corpus holds %d entries, want >= 20", len(entries))
	}
	if d := Dedup(entries); len(d) != len(entries) {
		t.Fatalf("committed corpus has duplicate fingerprints: %d entries, %d unique", len(entries), len(d))
	}
	ids := make(map[string]bool, len(entries))
	for _, e := range entries {
		if ids[e.ID] {
			t.Fatalf("duplicate corpus ID %s", e.ID)
		}
		ids[e.ID] = true
		if e.ID != e.Fingerprint[:12] {
			t.Errorf("entry %s: ID is not the fingerprint prefix %s", e.ID, e.Fingerprint[:12])
		}
		if e.Checked <= 0 && !e.Disagree {
			t.Errorf("entry %s: non-reproducer with Checked=%d", e.ID, e.Checked)
		}
		if e.K <= 0 {
			t.Errorf("entry %s: K=%d", e.ID, e.K)
		}
		if _, err := e.Instance(); err != nil {
			t.Errorf("entry %s does not regenerate: %v", e.ID, err)
		}
	}
}

func TestCorpusGet(t *testing.T) {
	entries := Entries()
	first := entries[0]
	if got, err := Get(first.ID); err != nil || got.Fingerprint != first.Fingerprint {
		t.Fatalf("Get(%q) = %v, %v", first.ID, got.ID, err)
	}
	// The full ID is always an unambiguous prefix of itself; a shorter
	// prefix resolves iff unique.
	if got, err := Get(first.ID[:11]); err == nil && got.Fingerprint != first.Fingerprint {
		t.Fatalf("Get(prefix) resolved to a different entry %s", got.ID)
	}
	if _, err := Get("zzzz"); err == nil {
		t.Fatal("Get of an unknown ID succeeded")
	}
	if _, err := Get(""); err == nil {
		t.Fatal("Get of an empty ID succeeded")
	}
	if len(IDs()) != len(entries) {
		t.Fatalf("IDs() returned %d ids for %d entries", len(IDs()), len(entries))
	}
}

// TestCorpusInstanceRef round-trips corpus IDs through the unified
// resolver this package registers with internal/gen.
func TestCorpusInstanceRef(t *testing.T) {
	e := Entries()[0]
	rv, err := gen.Resolve(gen.InstanceRef{Corpus: e.ID})
	if err != nil {
		t.Fatalf("Resolve(corpus %s): %v", e.ID, err)
	}
	fp, err := rv.Instance.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != e.Fingerprint {
		t.Fatalf("resolved instance fingerprint %s, want %s", fp, e.Fingerprint)
	}
	if rv.Name != "corpus:"+e.ID {
		t.Fatalf("resolved name %q", rv.Name)
	}
	over, err := gen.Resolve(gen.InstanceRef{Corpus: e.ID, Gamma: 3})
	if err != nil {
		t.Fatal(err)
	}
	if over.Instance.Gamma != 3 {
		t.Fatalf("gamma override not applied: %d", over.Instance.Gamma)
	}
	if _, err := gen.Resolve(gen.InstanceRef{Corpus: "nonexistent"}); err == nil {
		t.Fatal("resolving an unknown corpus ID succeeded")
	}
}

// TestCorpusReplay replays every committed entry through the full
// differential harness via the InstanceRef path. Zero violations is the
// corpus contract: these instances are hard, not broken.
func TestCorpusReplay(t *testing.T) {
	sess := solve.NewSession()
	var total diff.Result
	for _, e := range Entries() {
		r := diff.CheckRef(gen.InstanceRef{Corpus: e.ID}, diff.Options{Session: sess})
		for _, v := range r.Violations {
			t.Errorf("corpus %s: %s", e.ID, v)
		}
		total = diff.Merge(total, r)
	}
	if total.Instances != len(Entries()) {
		t.Fatalf("replayed %d instances, want %d", total.Instances, len(Entries()))
	}
	if total.Exact == 0 {
		t.Fatal("no corpus entry anchored an exact optimum")
	}
	if total.ExactPinned == 0 {
		t.Fatal("no corpus entry pinned the exact optimum to the engine's")
	}
	t.Logf("replayed %d entries: %d solver runs, %d oracle masks, %d compiled masks, %d exact optima pinned, %d skips",
		total.Instances, total.SolverRuns, total.OracleMasks, total.CompiledMasks, total.ExactPinned, total.Skips)
}

// baselineRun is one canonical-class measurement for the hardness test.
type baselineRun struct {
	name    string
	k       int
	checked int
	elapsed time.Duration
}

// engineRun derives the set problem and runs the engine single-worker,
// returning (k, checked, best-of-3 wall time). ok=false when the instance
// is infeasible or outside the engine envelope.
func engineRun(t *testing.T, it *gen.Instance) (int, int, time.Duration, bool) {
	t.Helper()
	p, err := it.Derive(secureview.Set)
	if err != nil {
		return 0, 0, 0, false
	}
	eng, _ := solve.Get("engine")
	if eng == nil || eng.Supports(p, secureview.Set) != nil {
		return 0, 0, 0, false
	}
	k := len(p.UsefulAttributes(secureview.Set))
	var checked int
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := solve.Solve(context.Background(), "engine", p, solve.Options{
			Variant: secureview.Set, Workers: 1,
		})
		if err != nil {
			t.Fatalf("engine on %s: %v", it.W.Name(), err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		checked = res.Counters.Checked
	}
	return k, checked, best, true
}

// TestCorpusHardness is the corpus's reason to exist: mined entries must
// be measurably harder for the engine than every canonical gen class.
//
//   - Deterministic claim: some entry's single-worker safety-test count
//     (Checked) is >= 2x the hardest canonical instance at comparable k
//     (baselines with k >= the entry's k), and the committed Checked value
//     replays exactly.
//   - Wall-clock claim: the hardest entry's engine runtime is >= 2x the
//     slowest canonical baseline (best-of-3 each; the Checked gap is
//     ~200x, so the margin absorbs timer noise).
func TestCorpusHardness(t *testing.T) {
	var base []baselineRun
	for _, cl := range gen.Classes() {
		for seed := int64(0); seed < 4; seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", cl.Name, seed, err)
			}
			k, checked, elapsed, ok := engineRun(t, it)
			if !ok {
				continue
			}
			base = append(base, baselineRun{cl.Name, k, checked, elapsed})
		}
	}
	if len(base) == 0 {
		t.Fatal("no canonical baseline instance is engine-solvable")
	}
	maxBaseK, slowest := 0, time.Duration(0)
	for _, b := range base {
		if b.k > maxBaseK {
			maxBaseK = b.k
		}
		if b.elapsed > slowest {
			slowest = b.elapsed
		}
	}

	dominates := false
	var hardest *baselineRun // reuse the struct for the hardest replayed entry
	for _, e := range Entries() {
		if e.Disagree {
			continue
		}
		it, err := e.Instance()
		if err != nil {
			t.Fatal(err)
		}
		k, checked, elapsed, ok := engineRun(t, it)
		if !ok {
			t.Fatalf("corpus entry %s left the engine envelope", e.ID)
		}
		if k != e.K || checked != e.Checked {
			t.Errorf("entry %s replays as (k=%d, checked=%d), committed (k=%d, checked=%d)",
				e.ID, k, checked, e.K, e.Checked)
		}
		if hardest == nil || checked > hardest.checked {
			hardest = &baselineRun{e.ID, k, checked, elapsed}
		}
		if k > maxBaseK {
			continue // no comparable-k baseline to beat
		}
		baseMax := 0
		for _, b := range base {
			if b.k >= k && b.checked > baseMax {
				baseMax = b.checked
			}
		}
		if checked >= 2*baseMax {
			dominates = true
			t.Logf("entry %s: checked=%d at k=%d vs baseline max %d at k>=%d (%.1fx)",
				e.ID, checked, k, baseMax, k, float64(checked)/float64(baseMax))
		}
	}
	if !dominates {
		t.Error("no corpus entry reaches 2x the hardest canonical instance at comparable k")
	}
	if hardest == nil {
		t.Fatal("corpus holds no non-reproducer entries")
	}
	if hardest.elapsed < 2*slowest {
		t.Errorf("hardest entry %s ran in %v, want >= 2x the slowest baseline %v",
			hardest.name, hardest.elapsed, slowest)
	}
	t.Logf("hardest entry %s: checked=%d k=%d in %v (slowest baseline %v)",
		hardest.name, hardest.checked, hardest.k, hardest.elapsed, slowest)
}

// TestMineDeterministic is the miner smoke: a short fixed-seed run mines
// at least one candidate and is bit-for-bit repeatable.
func TestMineDeterministic(t *testing.T) {
	opts := MineOptions{Steps: 2, Seed: 3, PerEval: 30 * time.Second}
	first, err := Mine(context.Background(), opts)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if len(first) == 0 {
		t.Fatal("short mining run produced no candidates")
	}
	second, err := Mine(context.Background(), opts)
	if err != nil {
		t.Fatalf("re-mine: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("mining is not deterministic: %d vs %d entries", len(first), len(second))
	}
	for _, e := range first {
		if _, err := e.Instance(); err != nil {
			t.Errorf("mined candidate %s does not regenerate: %v", e.ID, err)
		}
	}
}
