package secureview

// Benchmarks regenerating the paper-reproduction experiments (one per
// table in EXPERIMENTS.md; E1..E15 in quick mode) plus micro-benchmarks of
// the core operations. Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"secureview/internal/combopt"
	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/module"
	"secureview/internal/oracle"
	"secureview/internal/privacy"
	"secureview/internal/reductions"
	"secureview/internal/relation"
	"secureview/internal/search"
	sv "secureview/internal/secureview"
	"secureview/internal/workflow"
	"secureview/internal/worlds"
)

func benchExperiment(b *testing.B, id string) {
	e := exp.Find(id)
	if e == nil {
		b.Fatalf("experiment %s missing", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(true)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1Fig1(b *testing.B)              { benchExperiment(b, "E1") }
func BenchmarkE2DataSupplier(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Unsat(b *testing.B)             { benchExperiment(b, "E3") }
func BenchmarkE4OracleAdversary(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Standalone(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6WorldsRatio(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7Assembly(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8CardinalityLP(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9SetLP(b *testing.B)             { benchExperiment(b, "E9") }
func BenchmarkE10BoundedSharing(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11PublicModules(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12GeneralNoSharing(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13GeneralCardinality(b *testing.B) {
	benchExperiment(b, "E13")
}
func BenchmarkE14AssemblyVerify(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15LPAblation(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16PartialLogs(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17SolverAblation(b *testing.B) { benchExperiment(b, "E17") }

// --- micro-benchmarks of the core operations ---

func BenchmarkSafetyCheckFig1(b *testing.B) {
	mv := privacy.NewModuleView(module.Fig1M1())
	v := relation.NewNameSet("a1", "a3", "a5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := mv.IsSafe(v, 4); err != nil || !ok {
			b.Fatal("unexpected unsafe")
		}
	}
}

func BenchmarkStandaloneBruteForceK8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := module.Random("m",
		relation.Bools("x0", "x1", "x2", "x3"),
		relation.Bools("y0", "y1", "y2", "y3"), rng)
	mv := privacy.NewModuleView(m)
	costs := privacy.Uniform(mv.Attrs()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mv.MinCostSafeSubset(costs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkflowExecution(b *testing.B) {
	w := workflow.Fig1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Execute(relation.Tuple{i & 1, (i >> 1) & 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProvenanceJoin(b *testing.B) {
	m1 := module.Fig1M1().Relation()
	m2 := module.Fig1M2().Relation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m1.Join(m2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSetExample5(b *testing.B) {
	p := reductions.Example5(8, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sv.ExactSet(p, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyExample5(b *testing.B) {
	p := reductions.Example5(64, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol := sv.Greedy(p, sv.Set)
		if !p.Feasible(sol, sv.Set) {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkSetLPRoundLabelCover(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	lc := combopt.RandomLabelCover(3, 3, 3, 2, 3, rng)
	p := reductions.FromLabelCoverSet(lc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.SetLPRound(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCardinalityLPRoundSetCover(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	sc := combopt.RandomSetCover(8, 6, 0.35, rng)
	p := reductions.FromSetCoverCardinality(sc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.CardinalityLPRound(p,
			sv.RoundingOptions{Trials: 3, Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldEnumerationFig1(b *testing.B) {
	w := workflow.Fig1()
	r := w.MustRelation()
	visible := relation.NewNameSet("a1", "a2", "a3", "a5", "a6")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &worlds.Enumerator{W: w, R: r, Visible: visible}
		if _, err := e.Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeriveFig1(b *testing.B) {
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Derive(w, sv.DeriveOptions{Gamma: 2, Costs: costs}); err != nil {
			b.Fatal(err)
		}
	}
}

// Scaling micro-benchmarks: the standalone brute force across module
// arities (the O(2^k N²) shape of Lemma 4).
func BenchmarkStandaloneScaling(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			nIn := k / 2
			in := make([]string, nIn)
			for i := range in {
				in[i] = fmt.Sprintf("x%d", i)
			}
			out := make([]string, k-nIn)
			for i := range out {
				out[i] = fmt.Sprintf("y%d", i)
			}
			m := module.Random("m", relation.Bools(in...), relation.Bools(out...), rng)
			mv := privacy.NewModuleView(m)
			costs := privacy.Uniform(mv.Attrs()...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mv.MinCostSafeSubset(costs, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE18PriorSkew(b *testing.B) { benchExperiment(b, "E18") }

func BenchmarkE19Scaling(b *testing.B) { benchExperiment(b, "E19") }

func BenchmarkE20EngineVsNaive(b *testing.B) { benchExperiment(b, "E20") }

func BenchmarkE21CompiledOracle(b *testing.B) { benchExperiment(b, "E21") }

func BenchmarkE22ScenarioDiff(b *testing.B) { benchExperiment(b, "E22") }

func BenchmarkE23ScenarioPerf(b *testing.B) { benchExperiment(b, "E23") }

// BenchmarkGeneratedScenario times the full per-instance pipeline (generate,
// derive, solve with every heuristic and the exact solver) on one fixed
// instance per topology class — the unit of work the E22 differential suite
// and the scenario property tests repeat hundreds of times.
func BenchmarkGeneratedScenario(b *testing.B) {
	for _, cl := range gen.Classes() {
		cl := cl
		b.Run(cl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := gen.New(cl.Cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				p, err := it.Derive()
				if err != nil {
					continue // class infeasible at Γ for this seed
				}
				if sol := sv.Greedy(p, sv.Set); !p.Feasible(sol, sv.Set) {
					b.Fatal("greedy infeasible")
				}
				if _, _, err := sv.SetLPRound(p); err != nil {
					b.Fatal(err)
				}
				if _, err := sv.ExactSet(p, 1<<22); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- the internal/search engine vs the naive loop on large instances ---

// BenchmarkStandaloneSearch compares the naive 2^k loop against the pruned
// parallel engine — with the interpreted Lemma 4 oracle and with the
// compiled integer-coded oracle of internal/oracle — on k=14..18 instances
// (the exp.SearchBenchInstance shape). Identical optimal hidden sets and
// costs across variants are asserted by BenchmarkCompiledOracle and the
// property tests in internal/oracle. Run with:
//
//	go test -bench 'StandaloneSearch' -benchtime=1x
func BenchmarkStandaloneSearch(b *testing.B) {
	for _, k := range []int{14, 16, 18} {
		mv, costs, gamma := exp.SearchBenchInstance(k)
		sp, err := search.NewSpace(mv.Attrs(), costs.Of)
		if err != nil {
			b.Fatal(err)
		}
		interpreted := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }
		comp, err := mv.Compile()
		if err != nil {
			b.Fatal(err)
		}
		compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), gamma), nil }
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sp.NaiveMinCost(interpreted)
				if err != nil || !res.Found {
					b.Fatalf("err=%v found=%v", err, res.Found)
				}
			}
		})
		b.Run(fmt.Sprintf("engine/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sp.MinCost(interpreted, search.Options{})
				if err != nil || !res.Found {
					b.Fatalf("err=%v found=%v", err, res.Found)
				}
			}
		})
		b.Run(fmt.Sprintf("compiled/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sp.MinCost(compiled, search.Options{})
				if err != nil || !res.Found {
					b.Fatalf("err=%v found=%v", err, res.Found)
				}
			}
		})
	}
}

// BenchmarkCompiledOracle is the acceptance benchmark of ISSUE 2: the pruned
// parallel engine driven by the interpreted Lemma 4 oracle vs the same
// engine sharing one compiled integer-coded oracle across its worker pool,
// on oracle-bound searches at k=14–18. The two paths must find byte-
// identical optimal hidden sets and costs (asserted every iteration).
func BenchmarkCompiledOracle(b *testing.B) {
	for _, k := range []int{14, 16, 18} {
		mv, costs, gamma := exp.SearchBenchInstance(k)
		sp, err := search.NewSpace(mv.Attrs(), costs.Of)
		if err != nil {
			b.Fatal(err)
		}
		interpreted := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }
		comp, err := mv.Compile()
		if err != nil {
			b.Fatal(err)
		}
		compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), gamma), nil }
		want, err := sp.MinCost(interpreted, search.Options{})
		if err != nil || !want.Found {
			b.Fatalf("err=%v found=%v", err, want.Found)
		}
		b.Run(fmt.Sprintf("interpreted/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sp.MinCost(interpreted, search.Options{})
				if err != nil || !res.Found {
					b.Fatalf("err=%v found=%v", err, res.Found)
				}
			}
		})
		b.Run(fmt.Sprintf("compiled/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sp.MinCost(compiled, search.Options{})
				if err != nil || !res.Found {
					b.Fatalf("err=%v found=%v", err, res.Found)
				}
				if res.Hidden != want.Hidden || res.Cost != want.Cost {
					b.Fatalf("compiled optimum (hidden=%b cost=%g) != interpreted (hidden=%b cost=%g)",
						res.Hidden, res.Cost, want.Hidden, want.Cost)
				}
			}
		})
	}
}
