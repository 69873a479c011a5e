package gen

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"secureview/internal/secureview"
)

// TestSameSeedByteIdentical is the reproducibility guarantee: for every
// canonical class and several seeds, regenerating with the same seed —
// including under a different GOMAXPROCS setting and concurrently from
// several goroutines — yields byte-identical canonical serializations.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, cl := range Classes() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				want, err := MustNew(cl.Cfg, seed).CanonicalBytes()
				if err != nil {
					t.Fatal(err)
				}
				prev := runtime.GOMAXPROCS(1)
				got, err := MustNew(cl.Cfg, seed).CanonicalBytes()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("seed %d: GOMAXPROCS=1 regeneration differs", seed)
				}
				var wg sync.WaitGroup
				results := make([][]byte, 4)
				for i := range results {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i], _ = MustNew(cl.Cfg, seed).CanonicalBytes()
					}(i)
				}
				wg.Wait()
				for i, r := range results {
					if !bytes.Equal(want, r) {
						t.Fatalf("seed %d: concurrent regeneration %d differs", seed, i)
					}
				}
			}
		})
	}
	for _, pc := range ProblemClasses() {
		pc := pc
		t.Run("problem/"+pc.Name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				a := ProblemCanonicalBytes(Problem(pc.Cfg, seed))
				b := ProblemCanonicalBytes(Problem(pc.Cfg, seed))
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: regeneration differs", seed)
				}
			}
		})
	}
}

// TestDistinctSeedsDiffer guards against the generator ignoring its seed.
func TestDistinctSeedsDiffer(t *testing.T) {
	for _, cl := range Classes() {
		a, err := MustNew(cl.Cfg, 1).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := MustNew(cl.Cfg, 2).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("class %s: seeds 1 and 2 collide", cl.Name)
		}
	}
}

// TestGeneratedWorkflowsValid checks structural invariants of every class:
// the workflow builds, respects the Share cap, has at least one private
// module, every attribute is costed, and the injective/constant kinds
// deliver what they promise.
func TestGeneratedWorkflowsValid(t *testing.T) {
	for _, cl := range Classes() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				it := MustNew(cl.Cfg, seed)
				cfg := it.Cfg
				if got := it.W.DataSharing(); got > cfg.Share {
					t.Fatalf("seed %d: data sharing %d exceeds cap %d", seed, got, cfg.Share)
				}
				if len(it.W.PrivateModules()) == 0 {
					t.Fatalf("seed %d: no private modules", seed)
				}
				for _, a := range it.W.Schema().Names() {
					if _, ok := it.Costs[a]; !ok {
						t.Fatalf("seed %d: attribute %q has no cost", seed, a)
					}
				}
				for _, m := range it.W.PublicModules() {
					if _, ok := it.PrivatizeCosts[m.Name()]; !ok {
						t.Fatalf("seed %d: public module %q has no privatize cost", seed, m.Name())
					}
				}
			}
		})
	}
}

func TestInjectiveKindIsInjective(t *testing.T) {
	cfg := Config{Topology: Chain, Modules: 3, FanIn: 2, FanOut: 2, Funcs: Injective}
	for seed := int64(0); seed < 5; seed++ {
		it := MustNew(cfg, seed)
		for _, m := range it.W.Modules() {
			if !m.IsOneToOne() {
				t.Fatalf("seed %d: module %s not injective", seed, m.Name())
			}
		}
	}
}

func TestConstantHeavyKindHasSmallRange(t *testing.T) {
	cfg := Config{Topology: Chain, Modules: 3, FanIn: 2, FanOut: 2, Funcs: ConstantHeavy}
	for seed := int64(0); seed < 5; seed++ {
		it := MustNew(cfg, seed)
		for _, m := range it.W.Modules() {
			r, err := m.Relation().Project(m.OutputNames())
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() > 2 {
				t.Fatalf("seed %d: module %s has %d distinct outputs, want <=2", seed, m.Name(), r.Len())
			}
		}
	}
}

// TestGeneratedProblemsValid checks that every abstract class yields
// instances valid in BOTH constraint variants, with costs for every
// attribute and bounded sharing.
func TestGeneratedProblemsValid(t *testing.T) {
	for _, pc := range ProblemClasses() {
		pc := pc
		t.Run(pc.Name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				p := Problem(pc.Cfg, seed)
				if err := p.Validate(secureview.Set); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := p.Validate(secureview.Cardinality); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				cfg := pc.Cfg.withDefaults()
				if got := p.DataSharing(); got > cfg.Share {
					t.Fatalf("seed %d: sharing %d exceeds cap %d", seed, got, cfg.Share)
				}
				for _, a := range p.Attributes() {
					if _, ok := p.Costs[a]; !ok {
						t.Fatalf("seed %d: attribute %q has no cost", seed, a)
					}
				}
			}
		})
	}
}

// TestDeriveFromGenerated drives each class through the set-constraint
// assembly; classes may be infeasible at Γ for some seeds (no safe
// subsets), but at least one seed per class must derive.
func TestDeriveFromGenerated(t *testing.T) {
	for _, cl := range Classes() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			derived := 0
			for seed := int64(0); seed < 6; seed++ {
				it := MustNew(cl.Cfg, seed)
				p, err := it.Derive(secureview.Set)
				if err != nil {
					continue
				}
				if err := p.Validate(secureview.Set); err != nil {
					t.Fatalf("seed %d: derived instance invalid: %v", seed, err)
				}
				derived++
			}
			if derived == 0 {
				t.Fatalf("class %s: no seed derived a feasible instance", cl.Name)
			}
		})
	}
}

// TestQuickSingletonProblemSolvable ports the legacy workload property onto
// the folded generator: random singleton-requirement instances validate in
// both variants, every solver is feasible, and exact ≤ greedy.
func TestQuickSingletonProblemSolvable(t *testing.T) {
	f := func(seed int64) bool {
		cfg := ProblemConfig{
			Modules:    2 + int(uint64(seed)%5),
			MaxInputs:  1 + int(uint64(seed)%3),
			Share:      2,
			Singletons: true,
		}
		p := Problem(cfg, seed)
		if p.Validate(secureview.Set) != nil || p.Validate(secureview.Cardinality) != nil {
			return false
		}
		exact, err := secureview.ExactSet(p, 1<<20)
		if err != nil || !p.Feasible(exact, secureview.Set) {
			return false
		}
		greedy := secureview.Greedy(p, secureview.Set)
		if !p.Feasible(greedy, secureview.Set) {
			return false
		}
		return p.Cost(exact) <= p.Cost(greedy)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGoldenFingerprints pins one fingerprint per topology so accidental
// generator changes (which would silently reshuffle every downstream
// experiment and benchmark) fail loudly across commits, not just within a
// process. math/rand documents rand.NewSource streams as reproducible, so
// these are stable; update them only when the generator changes ON PURPOSE.
func TestGoldenFingerprints(t *testing.T) {
	golden := map[Topology]string{
		Chain:   "d0b3fe51c99125b1d2301f23c367a80ee7c29721c860a38fc16ea8ae9e137763",
		Tree:    "e1c8ff28e4b3768eacad286b701e59f745e89e95f26a6dfdc618b3901a4314e4",
		Layered: "c5f84bbbfda292ed2f6b89f6a0b8d48894194fa33ca82b4de134e5773d387976",
	}
	for topo, want := range golden {
		it := MustNew(Config{Topology: topo}, 7)
		got, err := it.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s seed 7: fingerprint %s, want %s (generator output changed)", topo, got, want)
		}
	}
}
