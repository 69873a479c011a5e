package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// engineGolden is the digest TestEngineGolden records. It was computed by
// the same test body, over this corpus.json, against the engine that still
// offered requirement-class collapsing, with the collapse switched off in
// both of its solves. The engine without that option must reproduce those
// counters, optima and exported frontiers exactly, so any drift in a
// single-worker engine solve fails the test. Entries are hashed in
// Entries() order, which sorts by the committed checked counts, so
// re-pinning a count can move the digest too.
const engineGolden = "788797fd38305fd4b48f27144c68a62c5d39f6d535956ce6a1a7a2153f37d9ef"

// TestEngineGolden hashes single-worker engine solves over every corpus
// entry and every gen class at seeds 0–2, in both variants: Checked,
// Pruned, OraclePasses, the sorted hidden names and the exported frontier's
// encoding. Each exported frontier is then resumed once after a fixed
// cost-only edit, and the warm run's counters, hidden names and frontier
// encoding are hashed too.
func TestEngineGolden(t *testing.T) {
	h := sha256.New()
	solves := 0
	for _, e := range Entries() {
		it, err := e.Instance()
		if err != nil {
			t.Fatalf("corpus %s: %v", e.ID, err)
		}
		solves += hashEngineSolves(t, h, "corpus:"+e.ID, it)
	}
	for _, cl := range gen.Classes() {
		for seed := int64(0); seed < 3; seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", cl.Name, seed, err)
			}
			solves += hashEngineSolves(t, h, fmt.Sprintf("%s/%d", cl.Name, seed), it)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d engine solves (each with a warm resume), digest %s", solves, got)
	if got != engineGolden {
		t.Fatalf("engine digest %s, want %s: a single-worker engine solve changed its counters, optimum or exported frontier", got, engineGolden)
	}
}

// hashEngineSolves writes the cold and warm engine solves of both variants
// of the instance into h and returns how many cold solves it hashed.
func hashEngineSolves(t *testing.T, h hash.Hash, name string, it *gen.Instance) int {
	t.Helper()
	ctx := context.Background()
	eng, _ := solve.Get("engine")
	solves := 0
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		derive := it.Derive
		if v == secureview.Cardinality {
			derive = it.DeriveCard
		}
		p, err := derive()
		if err != nil || eng.Supports(p, v) != nil {
			continue
		}
		opts := solve.Options{Variant: v, Workers: 1}
		res, err := solve.Solve(ctx, "engine", p, opts)
		solves++
		if err != nil {
			fmt.Fprintf(h, "%s/%v cold: %v\n", name, v, err)
			continue
		}
		hashEngineResult(h, name+" cold", v, res)

		names := make([]string, 0, len(p.Costs))
		for a := range p.Costs {
			names = append(names, a)
		}
		sort.Strings(names)
		edited := make(privacy.Costs, len(names))
		for i, a := range names {
			edited[a] = float64((i*7+3)%5) + 0.5
		}
		warmOpts := opts
		warmOpts.Resume = res.Frontier
		warm, err := solve.Solve(ctx, "engine", &secureview.Problem{Modules: p.Modules, Costs: edited}, warmOpts)
		if err != nil {
			fmt.Fprintf(h, "%s/%v warm: %v\n", name, v, err)
			continue
		}
		hashEngineResult(h, name+" warm", v, warm)
	}
	return solves
}

func hashEngineResult(h hash.Hash, name string, v secureview.Variant, res solve.Result) {
	c := res.Counters
	fmt.Fprintf(h, "%s/%v checked=%d pruned=%d passes=%d memo=%d resumed=%v/%d/%d hidden=%v\n",
		name, v, c.Checked, c.Pruned, c.OraclePasses, c.MemoHits,
		res.Resumed, c.ResumedSafe, c.ResumedUnsafe, res.Solution.Hidden.Sorted())
	if res.Frontier != nil {
		h.Write(res.Frontier.AppendBinary(nil))
	}
}
