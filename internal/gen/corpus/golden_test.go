package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"sort"
	"testing"

	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// engineGolden is the digest TestEngineGolden records. It was computed by
// the same test body, over this corpus.json, against the engine that still
// exported warm-start frontiers; its cold solves must reproduce those
// counters and optima exactly, so any drift in a single-worker engine solve
// fails the test. Entries are hashed in Entries() order, which sorts by the
// committed checked counts, so re-pinning a count can move the digest too.
const engineGolden = "bd69eb6e5d196dfcd21338910eac0d70742021e30dce26f6011f6d8ac3a071d6"

// TestEngineGolden hashes single-worker engine solves over every corpus
// entry and every gen class at seeds 0–2, in both variants: Checked,
// Pruned, OraclePasses and the sorted hidden names. Each instance is then
// solved again after a fixed cost-only edit, and that solve is hashed too.
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
	t.Logf("%d engine solves (each with a cost-edited re-solve), digest %s", solves, got)
	if got != engineGolden {
		t.Fatalf("engine digest %s, want %s: a single-worker engine solve changed its counters or optimum", got, engineGolden)
	}
}

// hashEngineSolves writes the engine solves of both variants of the
// instance, before and after a fixed cost-only edit, into h and returns how
// many unedited solves it hashed.
func hashEngineSolves(t *testing.T, h hash.Hash, name string, it *gen.Instance) int {
	t.Helper()
	ctx := context.Background()
	eng, _ := solve.Get("engine")
	solves := 0
	for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
		p, err := it.Derive(v)
		if err != nil || eng.Supports(p, v) != nil {
			continue
		}
		opts := solve.Options{Variant: v, Workers: 1}
		res, err := solve.Solve(ctx, "engine", p, opts)
		solves++
		if err != nil {
			fmt.Fprintf(h, "%s/%v: %v\n", name, v, err)
			continue
		}
		hashEngineResult(h, name, v, res)

		names := make([]string, 0, len(p.Costs))
		for a := range p.Costs {
			names = append(names, a)
		}
		sort.Strings(names)
		edited := make(privacy.Costs, len(names))
		for i, a := range names {
			edited[a] = float64((i*7+3)%5) + 0.5
		}
		res, err = solve.Solve(ctx, "engine", &secureview.Problem{Modules: p.Modules, Costs: edited}, opts)
		if err != nil {
			fmt.Fprintf(h, "%s/%v edited: %v\n", name, v, err)
			continue
		}
		hashEngineResult(h, name+" edited", v, res)
	}
	return solves
}

func hashEngineResult(h hash.Hash, name string, v secureview.Variant, res solve.Result) {
	c := res.Counters
	fmt.Fprintf(h, "%s/%v checked=%d pruned=%d passes=%d hidden=%v\n",
		name, v, c.Checked, c.Pruned, c.OraclePasses, res.Solution.Hidden.Sorted())
}

// deriveGolden is the digest TestDeriveGolden records. It was computed by
// the same test body against the derivation that still built the two
// variants in two workflow loops and the set options through name sets.
const deriveGolden = "ab4152a40e43087ca09f70a22c9f85b345ecbc6ec36d6c10b00dac2656b5ad08"

// TestDeriveGolden hashes the problem fingerprint, or the error text, of
// both variants' derivations of every corpus entry, every gen class at
// seeds 0–59 and the SearchBench workflows at k=10, 12 and 14. The
// fingerprint sorts each option's attributes; the test also derives every
// instance twice and requires identical module specs, option attribute
// order included.
func TestDeriveGolden(t *testing.T) {
	type named struct {
		name string
		it   *gen.Instance
	}
	var all []named
	for _, e := range Entries() {
		it, err := e.Instance()
		if err != nil {
			t.Fatalf("corpus %s: %v", e.ID, err)
		}
		all = append(all, named{"corpus:" + e.ID, it})
	}
	for _, cl := range gen.Classes() {
		for seed := int64(0); seed < 60; seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", cl.Name, seed, err)
			}
			all = append(all, named{fmt.Sprintf("%s/%d", cl.Name, seed), it})
		}
	}
	for _, k := range []int{10, 12, 14} {
		w, costs, gamma := exp.SearchBenchWorkflow(k)
		all = append(all, named{fmt.Sprintf("searchbench/%d", k), &gen.Instance{W: w, Costs: costs, Gamma: gamma}})
	}
	h := sha256.New()
	n := 0
	for _, d := range all {
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			p, err := d.it.Derive(v)
			n++
			if err != nil {
				fmt.Fprintf(h, "%s/%v: %v\n", d.name, v, err)
				continue
			}
			fmt.Fprintf(h, "%s/%v: %s\n", d.name, v, solve.ProblemFingerprint(p, v))
			again, err := d.it.Derive(v)
			if err != nil || !reflect.DeepEqual(again.Modules, p.Modules) {
				t.Errorf("%s/%v: a second derivation differs (err %v)", d.name, v, err)
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d derivations, digest %s", n, got)
	if got != deriveGolden {
		t.Fatalf("derivation digest %s, want %s: a derived requirement list changed", got, deriveGolden)
	}
}
