package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"secureview/internal/combopt"
	"secureview/internal/gen"
	"secureview/internal/gen/diff"
	"secureview/internal/module"
	"secureview/internal/oracle"
	"secureview/internal/privacy"
	"secureview/internal/reductions"
	"secureview/internal/relation"
	"secureview/internal/sat"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/workflow"
	"secureview/internal/worlds"
)

// Registry returns all reproduction experiments in order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Figures 1–2, Examples 1–3: running example, safe subsets, worlds", Run: runE1},
		{ID: "E2", Title: "Theorem 1: Ω(N) data-supplier calls (set disjointness)", Run: runE2},
		{ID: "E3", Title: "Theorem 2: Safe-View ↔ UNSAT (co-NP-hardness gadget)", Run: runE3},
		{ID: "E4", Title: "Theorem 3: 2^Ω(k) Safe-View oracle calls (adversary)", Run: runE4},
		{ID: "E5", Title: "Lemma 4 / Algorithm 2: O(2^k N²) standalone brute force", Run: runE5},
		{ID: "E6", Title: "Proposition 2: doubly-exponential world-count collapse", Run: runE6},
		{ID: "E7", Title: "Example 5: Ω(n) assembly gap vs workflow optimum", Run: runE7},
		{ID: "E8", Title: "Theorem 5 / Fig. 3 / Alg. 1: cardinality LP rounding", Run: runE8},
		{ID: "E9", Title: "Theorem 6 / Fig. 4: set-constraint ℓmax rounding on label cover", Run: runE9},
		{ID: "E10", Title: "Theorem 7 / Fig. 5: (γ+1) greedy under bounded sharing", Run: runE10},
		{ID: "E11", Title: "Section 5.1, Examples 7–8: public-module leaks and privatization", Run: runE11},
		{ID: "E12", Title: "Theorem 9 / C.2: general workflows, no sharing, set-cover gap", Run: runE12},
		{ID: "E13", Title: "Theorem 10 / Fig. 6: general cardinality ≡ label cover", Run: runE13},
		{ID: "E14", Title: "Theorems 4/8: assembly verified by world enumeration", Run: runE14},
		{ID: "E15", Title: "B.4.1 ablation: integrality gap of weakened LPs", Run: runE15},
		{ID: "E16", Title: "Section 1 reading: deriving from partial execution logs", Run: runE16},
		{ID: "E17", Title: "Solver ablation: exact enumeration vs branch-and-bound", Run: runE17},
		{ID: "E18", Title: "Section 6 future work: non-uniform priors erode Γ-privacy", Run: runE18},
		{ID: "E19", Title: "Scaling: greedy vs LP rounding vs exact on growing instances", Run: runE19},
		{ID: "E20", Title: "Engine: pruned parallel subset search vs naive 2^k brute force", Run: runE20},
		{ID: "E21", Title: "Oracle: compiled integer-coded safety tests vs interpreted Lemma 4", Run: runE21},
		{ID: "E22", Title: "Scenarios: cross-solver differential suite over generated topology classes", Run: runE22},
		{ID: "E23", Title: "Scenarios: solver performance across generated instance shapes", Run: runE23},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for _, e := range Registry() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

func runE1(quick bool) []*Table {
	w := workflow.Fig1()
	r := w.MustRelation()
	t1 := &Table{Title: "E1a: workflow relation R (Figure 1b)", Header: w.Schema().Names()}
	for _, row := range r.SortedRows() {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = v
		}
		t1.Add(cells...)
	}

	mv := privacy.NewModuleView(module.Fig1M1())
	t2 := &Table{
		Title:  "E1b: Example 3 safety checks for m1, Γ=4",
		Header: []string{"visible V", "min |OUT_x|", "safe(Γ=4)", "paper"},
	}
	for _, tc := range []struct {
		vis   []string
		paper string
	}{
		{[]string{"a1", "a3", "a5"}, "safe (|OUT|=4)"},
		{[]string{"a1", "a2", "a3"}, "safe (hide 2 outputs)"},
		{[]string{"a3", "a4", "a5"}, "unsafe (|OUT|=3)"},
	} {
		v := relation.NewNameSet(tc.vis...)
		min, _ := mv.MinOutSize(v)
		safe, _ := mv.IsSafe(v, 4)
		t2.Add(v.String(), min, safe, tc.paper)
	}
	out, _ := mv.OutSet(relation.NewNameSet("a1", "a3", "a5"), relation.Tuple{0, 0})
	t2.Note("OUT_{(0,0)} with V={a1,a3,a5}: %v (paper: {(0,0,1),(0,1,1),(1,0,0),(1,1,0)})", out)

	nWorlds, err := worlds.CountFunctionWorlds(module.Fig1M1(), relation.NewNameSet("a1", "a3", "a5"))
	t3 := &Table{
		Title:  "E1c: Example 2 standalone world count",
		Header: []string{"visible V", "|Worlds(R1,V)| measured", "paper"},
	}
	if err == nil {
		t3.Add("{a1, a3, a5}", nWorlds, 64)
	}
	return []*Table{t1, t2, t3}
}

func runE2(quick bool) []*Table {
	sizes := []int{8, 64, 512, 4096}
	if quick {
		sizes = []int{8, 64}
	}
	t := &Table{
		Title:  "E2: supplier calls to decide safety of the disjointness gadget",
		Header: []string{"N", "disjoint: calls (=N+1)", "intersect@N/2: calls", "safe(disjoint)", "safe(intersect)"},
	}
	for _, n := range sizes {
		a := make([]bool, n)
		b := make([]bool, n)
		for i := 0; i < n/2; i++ {
			a[i] = true
			b[n-1-i] = i >= n/2 // all false: disjoint
		}
		m, inputs, visible := privacy.DisjointnessGadget(a, b)
		d := privacy.NewDataSupplier(m)
		safeD, callsD, _ := privacy.StreamingSafety(d, inputs, visible, 2)

		b2 := make([]bool, n)
		b2[n/2] = true
		a2 := make([]bool, n)
		a2[n/2] = true
		m2, inputs2, visible2 := privacy.DisjointnessGadget(a2, b2)
		d2 := privacy.NewDataSupplier(m2)
		safeI, callsI, _ := privacy.StreamingSafety(d2, inputs2, visible2, 2)
		t.Add(n, callsD, callsI, safeD, safeI)
	}
	t.Note("paper: deciding safety needs Ω(N) supplier calls; the NO side always reads all N+1 rows")
	return []*Table{t}
}

func runE3(quick bool) []*Table {
	vars := []int{4, 6, 8, 10}
	if quick {
		vars = []int{4, 6}
	}
	rng := rand.New(rand.NewSource(3))
	t := &Table{
		Title:  "E3: UNSAT gadget — view safety ≡ unsatisfiability",
		Header: []string{"ℓ vars", "formula", "rows 2^(ℓ+1)", "safe", "DPLL unsat", "agree", "ms"},
	}
	for _, l := range vars {
		for _, tc := range []struct {
			name string
			f    *sat.CNF
		}{
			{"contradiction", sat.Contradiction(l)},
			{"random 3-CNF", sat.Random3CNF(l, 4*l, rng)},
			{"tautology", sat.Tautology(l)},
		} {
			m, visible := privacy.UnsatGadget(tc.f)
			start := time.Now()
			mv := privacy.NewModuleView(m)
			safe, _ := mv.IsSafe(visible, 2)
			ms := float64(time.Since(start).Microseconds()) / 1000
			unsat := !tc.f.Satisfiable()
			t.Add(l, tc.name, 1<<(l+1), safe, unsat, safe == unsat, ms)
		}
	}
	t.Note("paper: Safe-View is co-NP-hard in k via UNSAT; decision time grows with 2^ℓ")
	return []*Table{t}
}

func runE4(quick bool) []*Table {
	ells := []int{4, 8, 12, 16}
	if quick {
		ells = []int{4, 8}
	}
	t := &Table{
		Title:  "E4: oracle calls against the Theorem 3 adversary (budget C = ℓ/2)",
		Header: []string{"ℓ", "oracle calls", "calls/2^(ℓ/2)", "lower bound C(ℓ,ℓ/2)/C(3ℓ/4,ℓ/4)", "candidates left"},
	}
	for _, ell := range ells {
		inst := privacy.Theorem3Instance{Ell: ell}
		adv := privacy.NewAdversaryOracle(ell)
		oracle := &privacy.CountingOracle{Inner: adv}
		attrs := append(inst.InputNames(), "y")
		_, _, calls, err := privacy.MinCostSafeSubsetWithOracle(attrs, inst.Costs(), oracle, float64(ell)/2)
		if err != nil {
			t.Note("ℓ=%d: %v", ell, err)
			continue
		}
		t.Add(ell, calls, float64(calls)/math.Pow(2, float64(ell)/2),
			privacy.QueryLowerBound(ell), adv.RemainingCandidates())
	}
	t.Note("paper: 2^Ω(k) calls required; the adversary always has a consistent special set remaining")
	return []*Table{t}
}

func runE5(quick bool) []*Table {
	ks := []int{4, 6, 8, 10}
	if quick {
		ks = []int{4, 6}
	}
	rng := rand.New(rand.NewSource(5))
	t := &Table{
		Title:  "E5: standalone Secure-View search (Algorithm 2 via the pruned engine) scaling",
		Header: []string{"k attrs", "N rows", "safety tests", "pruned", "min cost", "ms", "ms/2^k"},
	}
	for _, k := range ks {
		nIn := k / 2
		nOut := k - nIn
		in := make([]string, nIn)
		for i := range in {
			in[i] = fmt.Sprintf("x%d", i)
		}
		out := make([]string, nOut)
		for i := range out {
			out[i] = fmt.Sprintf("y%d", i)
		}
		m := module.Random("m", relation.Bools(in...), relation.Bools(out...), rng)
		mv := privacy.NewModuleView(m)
		start := time.Now()
		res, err := mv.MinCostSafeSubset(privacy.Uniform(mv.Attrs()...), 2)
		ms := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("k=%d: %v", k, err)
			continue
		}
		t.Add(k, 1<<nIn, res.Checked, res.Pruned, res.Cost, ms, ms/float64(int(1)<<k))
	}
	t.Note("paper: O(2^k N²) upper bound (Lemma 4), 2^Ω(k) lower bound (Theorem 3); checked+pruned = 2^k, see E20 for the engine-vs-naive comparison")
	return []*Table{t}
}

func runE6(quick bool) []*Table {
	ks := []int{1, 2, 3}
	if quick {
		ks = []int{1, 2}
	}
	t := &Table{
		Title:  "E6: Proposition 2 world counts (one-one chain, Γ=2, hide 1 bit of O1)",
		Header: []string{"k", "standalone measured", "Γ^(2^k)", "workflow measured", "(Γ!)^(2^k/Γ)", "ratio"},
	}
	for _, k := range ks {
		bits := func(level int) []string {
			out := make([]string, k)
			for b := 0; b < k; b++ {
				out[b] = fmt.Sprintf("x%d_%d", level, b)
			}
			return out
		}
		m1 := module.Identity("m1", bits(0), bits(1))
		m2 := module.Complement("m2", bits(1), bits(2))
		w := workflow.MustNew("prop2", m1, m2)
		solo := workflow.MustNew("solo", module.Identity("m1", bits(0), bits(1)))
		hidden := relation.NewNameSet(fmt.Sprintf("x%d_%d", 1, 0))

		es := &worlds.Enumerator{W: solo, R: solo.MustRelation(),
			Visible: relation.NewNameSet(solo.Schema().Names()...).Minus(hidden)}
		nStand, err := es.Count()
		if err != nil {
			t.Note("k=%d standalone: %v", k, err)
			continue
		}
		ew := &worlds.Enumerator{W: w, R: w.MustRelation(),
			Visible: relation.NewNameSet(w.Schema().Names()...).Minus(hidden)}
		nWork, err := ew.Count()
		if err != nil {
			t.Note("k=%d workflow: %v", k, err)
			continue
		}
		gamma := 2.0
		predStand := math.Pow(gamma, math.Pow(2, float64(k)))
		predWork := math.Pow(2, math.Pow(2, float64(k))/gamma) // (2!)^(2^k/2)
		t.Add(k, nStand, predStand, nWork, predWork, float64(nStand)/float64(nWork))
	}
	t.Note("paper: the ratio is doubly exponential in k, yet privacy is preserved (Lemma 1)")
	return []*Table{t}
}

func runE7(quick bool) []*Table {
	ns := []int{2, 4, 8, 16, 32}
	if quick {
		ns = []int{2, 4, 8}
	}
	const eps = 0.5
	t := &Table{
		Title:  "E7: Example 5 assembly gap",
		Header: []string{"n", "greedy (standalone optima)", "workflow optimum", "ratio", "paper ratio (n+1)/(2+ε)"},
	}
	for _, n := range ns {
		p := reductions.Example5(n, eps)
		greedy := secureview.Greedy(p, secureview.Set)
		gc := p.Cost(greedy)
		var oc float64
		if n <= 10 {
			exact, err := secureview.ExactSet(p, 1<<22)
			if err != nil {
				t.Note("n=%d: %v", n, err)
				continue
			}
			oc = p.Cost(exact)
		} else {
			// Analytic optimum {a2, b0}; verified feasible.
			sol := p.Complete(relation.NewNameSet("a2", "b0"))
			if !p.Feasible(sol, secureview.Set) {
				t.Note("n=%d: analytic optimum infeasible", n)
				continue
			}
			oc = p.Cost(sol)
		}
		t.Add(n, gc, oc, gc/oc, float64(n+1)/(2+eps))
	}
	t.Note("paper: the union of standalone optima is Ω(n) worse than the workflow optimum")
	return []*Table{t}
}

func runE8(quick bool) []*Table {
	type size struct{ n, m int }
	sizes := []size{{5, 4}, {6, 5}, {8, 6}, {10, 8}}
	if quick {
		sizes = sizes[:2]
	}
	rng := rand.New(rand.NewSource(8))
	t := &Table{
		Title:  "E8: cardinality LP rounding on set-cover gadgets (Theorem 5)",
		Header: []string{"elements", "sets", "OPT", "LP value", "rounded", "greedy", "rounded/OPT", "bound 16·ln n"},
	}
	for _, s := range sizes {
		sc := combopt.RandomSetCover(s.n, s.m, 0.35, rng)
		p := reductions.FromSetCoverCardinality(sc)
		exact, err := secureview.BruteForceCard(p, 14)
		if err != nil {
			t.Note("(%d,%d): %v", s.n, s.m, err)
			continue
		}
		opt := p.Cost(exact)
		rounded, lpVal, err := secureview.CardinalityLPRound(p,
			secureview.RoundingOptions{Trials: 7, Rng: rand.New(rand.NewSource(42))})
		if err != nil {
			t.Note("(%d,%d): %v", s.n, s.m, err)
			continue
		}
		greedy := secureview.Greedy(p, secureview.Cardinality)
		nMods := float64(p.PrivateCount())
		t.Add(s.n, s.m, opt, lpVal, p.Cost(rounded), p.Cost(greedy),
			p.Cost(rounded)/opt, 16*math.Log(nMods))
	}
	t.Note("paper: O(log n)-approximation, Ω(log n)-hard; OPT equals the set-cover optimum (Lemma in B.4.2)")
	return []*Table{t}
}

func runE9(quick bool) []*Table {
	trials := 6
	if quick {
		trials = 3
	}
	rng := rand.New(rand.NewSource(9))
	t := &Table{
		Title:  "E9: ℓmax rounding on label-cover gadgets (Theorem 6)",
		Header: []string{"trial", "ℓmax", "LC OPT", "SV OPT", "LP value", "rounded", "rounded/OPT"},
	}
	for i := 0; i < trials; i++ {
		lc := combopt.RandomLabelCover(2, 2, 2, 1+rng.Intn(2), 1+rng.Intn(3), rng)
		p := reductions.FromLabelCoverSet(lc)
		exact, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			t.Note("trial %d: %v", i, err)
			continue
		}
		opt := p.Cost(exact)
		rounded, lpVal, err := secureview.SetLPRound(p)
		if err != nil {
			t.Note("trial %d: %v", i, err)
			continue
		}
		lcSol, err := lc.ExactCtx(context.Background(), 0)
		if err != nil {
			t.Note("trial %d: %v", i, err)
			continue
		}
		t.Add(i, p.LMax(secureview.Set), lc.CostOf(lcSol), opt, lpVal, p.Cost(rounded), p.Cost(rounded)/opt)
	}
	t.Note("paper: ℓmax-approximation (B.5.1); SV OPT equals LC OPT exactly (Lemma 5)")
	return []*Table{t}
}

func runE10(quick bool) []*Table {
	rng := rand.New(rand.NewSource(10))
	t := &Table{
		Title:  "E10: bounded data sharing — greedy vs exact (Theorem 7)",
		Header: []string{"instance", "γ", "OPT", "greedy", "ratio", "bound γ+1"},
	}
	g := combopt.RandomCubicGraph(4, rng)
	p := reductions.FromVertexCoverNoSharing(g)
	exact, err := secureview.BruteForceCard(p, 18)
	if err == nil {
		greedy := secureview.Greedy(p, secureview.Cardinality)
		// Without a node budget or a deadline the search cannot fail.
		vc, _ := g.ExactVertexCoverCtx(context.Background(), 0)
		k := len(vc)
		t.Add("cubic VC (K4)", p.DataSharing(), p.Cost(exact), p.Cost(greedy),
			p.Cost(greedy)/p.Cost(exact), p.DataSharing()+1)
		t.Note("vertex-cover correspondence: OPT = |E|+K = %d+%d = %v (Lemma 6)",
			len(g.Edges), k, p.Cost(exact))
	}
	n := 8
	if quick {
		n = 5
	}
	for _, share := range []int{1, 2, 3} {
		sumRatio, cnt := 0.0, 0
		for trial := 0; trial < 5; trial++ {
			rp := randomShared(n, share, rng)
			exact, err := secureview.ExactSet(rp, 1<<22)
			if err != nil {
				continue
			}
			greedy := secureview.Greedy(rp, secureview.Set)
			if oc := rp.Cost(exact); oc > 0 {
				sumRatio += rp.Cost(greedy) / oc
				cnt++
			}
		}
		if cnt > 0 {
			t.Add(fmt.Sprintf("random chain n=%d", n), share, "-", "-", sumRatio/float64(cnt), share+1)
		}
	}
	return []*Table{t}
}

func runE11(quick bool) []*Table {
	t := &Table{
		Title:  "E11: public-module leaks and privatization (Examples 7–8, Theorem 8)",
		Header: []string{"scenario", "|OUT| public visible", "|OUT| privatized", "Γ target", "leak?", "repaired?"},
	}
	// Constant upstream.
	mPub := module.Constant("mprime", relation.Bools("i0"), relation.Bools("u1", "u2"), relation.Tuple{0, 1}).AsPublic()
	mPriv := module.Identity("m", []string{"u1", "u2"}, []string{"v1", "v2"})
	w := workflow.MustNew("ex7", mPub, mPriv)
	hidden := relation.NewNameSet("u1")
	visible := relation.NewNameSet(w.Schema().Names()...).Minus(hidden)
	r := w.MustRelation()
	e := &worlds.Enumerator{W: w, R: r, Visible: visible}
	out1, _ := e.OutSet("m", relation.Tuple{0, 1})
	ep := &worlds.Enumerator{W: w, R: r, Visible: visible, Privatized: relation.NewNameSet("mprime")}
	out2, _ := ep.OutSet("m", relation.Tuple{0, 1})
	t.Add("constant upstream", len(out1), len(out2), 2, len(out1) < 2, len(out2) >= 2)

	// Invertible downstream.
	mPriv2 := module.Identity("m", []string{"i0"}, []string{"u"})
	mPub2 := module.Complement("mpp", []string{"u"}, []string{"v"}).AsPublic()
	w2 := workflow.MustNew("ex7b", mPriv2, mPub2)
	hidden2 := relation.NewNameSet("u")
	visible2 := relation.NewNameSet(w2.Schema().Names()...).Minus(hidden2)
	r2 := w2.MustRelation()
	e2 := &worlds.Enumerator{W: w2, R: r2, Visible: visible2}
	o1, _ := e2.OutSet("m", relation.Tuple{0})
	e2p := &worlds.Enumerator{W: w2, R: r2, Visible: visible2, Privatized: relation.NewNameSet("mpp")}
	o2, _ := e2p.OutSet("m", relation.Tuple{0})
	t.Add("invertible downstream", len(o1), len(o2), 2, len(o1) < 2, len(o2) >= 2)
	t.Note("paper: standalone-safe sets stop being safe next to public modules; privatization restores privacy")
	return []*Table{t}
}

func runE12(quick bool) []*Table {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{4, 6, 8}
	if quick {
		sizes = sizes[:2]
	}
	t := &Table{
		Title:  "E12: general workflows without sharing ≡ set cover (Theorem 9)",
		Header: []string{"elements", "sets", "γ", "set-cover OPT", "SV OPT", "greedy", "greedy/OPT"},
	}
	for _, n := range sizes {
		sc := combopt.RandomSetCover(n, n+1, 0.4, rng)
		p := reductions.FromSetCoverGeneral(sc)
		exact, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			t.Note("n=%d: %v", n, err)
			continue
		}
		greedy := secureview.Greedy(p, secureview.Set)
		cover, err := sc.ExactCtx(context.Background(), 0)
		if err != nil {
			t.Note("n=%d: %v", n, err)
			continue
		}
		opt := sc.CostOf(cover)
		ratio := 0.0
		if p.Cost(exact) > 0 {
			ratio = p.Cost(greedy) / p.Cost(exact)
		}
		t.Add(n, len(sc.Sets), p.DataSharing(), opt, p.Cost(exact), p.Cost(greedy), ratio)
	}
	t.Note("paper: Ω(log n)-hard even with γ=1 — privatization sharing replaces data sharing")
	return []*Table{t}
}

func runE13(quick bool) []*Table {
	rng := rand.New(rand.NewSource(13))
	trials := 4
	if quick {
		trials = 2
	}
	t := &Table{
		Title:  "E13: general cardinality ≡ label cover (Theorem 10)",
		Header: []string{"trial", "γ", "LC OPT", "SV OPT", "equal", "greedy", "greedy/OPT"},
	}
	for i := 0; i < trials; i++ {
		lc := combopt.RandomLabelCover(2, 1, 2, 1, 2, rng)
		p := reductions.FromLabelCoverGeneral(lc)
		exact, err := secureview.BruteForceCard(p, 16)
		if err != nil {
			t.Note("trial %d: %v", i, err)
			continue
		}
		lcSol, err := lc.ExactCtx(context.Background(), 0)
		if err != nil {
			t.Note("trial %d: %v", i, err)
			continue
		}
		lcOpt := lc.CostOf(lcSol)
		svOpt := p.Cost(exact)
		greedy := secureview.Greedy(p, secureview.Cardinality)
		ratio := 0.0
		if svOpt > 0 {
			ratio = p.Cost(greedy) / svOpt
		}
		t.Add(i, p.DataSharing(), lcOpt, svOpt, lcOpt == svOpt, p.Cost(greedy), ratio)
	}
	t.Note("paper: Ω(2^(log^(1-γ) n))-hard to approximate; all cost is privatization (Lemma 8)")
	return []*Table{t}
}

func runE14(quick bool) []*Table {
	t := &Table{
		Title:  "E14: assembly theorem verified by exhaustive world enumeration",
		Header: []string{"workflow", "Γ", "hidden set", "modules verified Γ-workflow-private"},
	}
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	p, err := secureview.Derive(w, secureview.DeriveOptions{Gamma: 2, Costs: costs})
	if err != nil {
		t.Note("derive: %v", err)
		return []*Table{t}
	}
	sol, err := secureview.ExactSet(p, 1<<22)
	if err != nil {
		t.Note("solve: %v", err)
		return []*Table{t}
	}
	visible := relation.NewNameSet(w.Schema().Names()...).Minus(sol.Hidden)
	e := &worlds.Enumerator{W: w, R: w.MustRelation(), Visible: visible}
	verified := 0
	for _, m := range w.Modules() {
		ok, err := e.IsWorkflowPrivate(m.Name(), 2)
		if err == nil && ok {
			verified++
		}
	}
	t.Add("fig1", 2, sol.Hidden.String(), fmt.Sprintf("%d/%d", verified, len(w.Modules())))
	t.Note("paper: Theorem 4 — standalone safe sets assemble into workflow privacy")
	return []*Table{t}
}

func runE15(quick bool) []*Table {
	ms := []float64{10, 100, 1000}
	if quick {
		ms = ms[:2]
	}
	t := &Table{
		Title:  "E15: integrality-gap ablation of the Figure 3 IP (B.4.1)",
		Header: []string{"M", "weak LP", "full LP", "IP optimum", "IP/weak", "IP/full"},
	}
	for _, m := range ms {
		p := gapGadget(m)
		weak, err1 := secureview.CardinalityLPValue(p, secureview.WeakForm)
		full, err2 := secureview.CardinalityLPValue(p, secureview.FullForm)
		exact, err3 := secureview.BruteForceCard(p, 10)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Note("M=%v: %v %v %v", m, err1, err2, err3)
			continue
		}
		ip := p.Cost(exact)
		weakRatio := math.Inf(1)
		if weak > 1e-9 {
			weakRatio = ip / weak
		}
		t.Add(m, weak, full, ip, weakRatio, ip/full)
	}
	t.Note("paper: dropping constraints (6)/(7) and the (4)/(5) summations yields unbounded gaps")
	return []*Table{t}
}

func gapGadget(m float64) *secureview.Problem {
	return &secureview.Problem{
		Modules: []secureview.ModuleSpec{{
			Name:    "m",
			Inputs:  []string{"i1", "i2", "i3", "i4"},
			Outputs: []string{"o1", "o2", "o3", "o4"},
			CardList: []secureview.CardReq{
				{Alpha: 4, Beta: 0},
				{Alpha: 0, Beta: 4},
			},
		}},
		Costs: privacy.Costs{
			"i1": 0, "i2": 0, "i3": m, "i4": m,
			"o1": 0, "o2": 0, "o3": m, "o4": m,
		},
	}
}

func runE16(quick bool) []*Table {
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	if quick {
		fractions = []float64{0.5, 1.0}
	}
	rng := rand.New(rand.NewSource(16))
	w := workflow.Fig1()
	costs := privacy.Uniform(w.Schema().Names()...)
	all := relation.AllTuples(relation.MustSchema(w.InitialInputs()...))
	t := &Table{
		Title:  "E16: secure-view cost when deriving from partial execution logs (Fig. 1, Γ=2)",
		Header: []string{"log fraction", "executions", "optimal cost", "vs full-domain"},
	}
	fullProb, err := secureview.Derive(w, secureview.DeriveOptions{Gamma: 2, Costs: costs})
	if err != nil {
		t.Note("full derive: %v", err)
		return []*Table{t}
	}
	fullSol, err := secureview.ExactSet(fullProb, 1<<22)
	if err != nil {
		t.Note("full solve: %v", err)
		return []*Table{t}
	}
	fullCost := fullProb.Cost(fullSol)
	for _, f := range fractions {
		n := int(f * float64(len(all)))
		if n < 1 {
			n = 1
		}
		perm := rng.Perm(len(all))
		inputs := make([]relation.Tuple, 0, n)
		for _, i := range perm[:n] {
			inputs = append(inputs, all[i])
		}
		rec, err := w.RelationOver(inputs)
		if err != nil {
			t.Note("f=%v: %v", f, err)
			continue
		}
		p, err := secureview.Derive(w, secureview.DeriveOptions{Gamma: 2, Costs: costs, Recorded: rec})
		if err != nil {
			t.Add(fmt.Sprintf("%.2f", f), n, "infeasible", "-")
			continue
		}
		sol, err := secureview.ExactSet(p, 1<<22)
		if err != nil {
			t.Note("f=%v: %v", f, err)
			continue
		}
		c := p.Cost(sol)
		t.Add(fmt.Sprintf("%.2f", f), n, c, c/fullCost)
	}
	t.Note("paper §1: R is \"the set of workflow executions that have been run\"; partial logs can need MORE hiding (fewer rows ⇒ fewer distinct outputs ⇒ smaller OUT sets)")
	t.Note("even the complete log (fraction 1.00) differs from the full-domain baseline: it derives from the reachable module inputs π_{Ii∪Oi}(R) ⊆ Ri (paper §4, first paragraph)")
	return []*Table{t}
}

func runE17(quick bool) []*Table {
	sizes := []int{4, 6, 8}
	if quick {
		sizes = sizes[:2]
	}
	rng := rand.New(rand.NewSource(17))
	t := &Table{
		Title:  "E17: exact-solver ablation on set-cover gadgets (enumeration vs branch-and-bound)",
		Header: []string{"elements", "sets", "useful attrs", "enum ms", "BB ms", "costs equal"},
	}
	for _, n := range sizes {
		sc := combopt.RandomSetCover(n, n, 0.35, rng)
		p := reductions.FromSetCoverCardinality(sc)
		start := time.Now()
		enum, err1 := secureview.BruteForceCard(p, 16)
		enumMS := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		bb, err2 := secureview.ExactCardBB(p, 1<<22)
		bbMS := float64(time.Since(start).Microseconds()) / 1000
		if err1 != nil || err2 != nil {
			t.Note("n=%d: %v %v", n, err1, err2)
			continue
		}
		t.Add(n, len(sc.Sets), len(sc.Sets), enumMS, bbMS, p.Cost(enum) == p.Cost(bb))
	}
	t.Note("both are optimal; BB prunes via per-module completion bounds (DESIGN.md §5)")
	return []*Table{t}
}

func runE18(quick bool) []*Table {
	skews := []float64{0.5, 0.6, 0.75, 0.9, 0.99}
	if quick {
		skews = []float64{0.5, 0.9}
	}
	mv := privacy.NewModuleView(module.Fig1M1())
	v := relation.NewNameSet("a1", "a3", "a5") // Γ=4 safe view of Example 3
	x := relation.Tuple{0, 0}
	t := &Table{
		Title:  "E18: adversary guess probability under skewed priors on hidden a4 (m1, Γ=4 view)",
		Header: []string{"P(a4=0)", "guess probability", "uniform bound 1/Γ", "exceeds 1/Γ"},
	}
	for _, s := range skews {
		prior := privacy.Prior{"a4": []float64{s, 1 - s}}
		g, err := mv.GuessProbability(v, x, prior)
		if err != nil {
			t.Note("skew %v: %v", s, err)
			continue
		}
		t.Add(s, g, 0.25, g > 0.25+1e-12)
	}
	t.Note("paper §6: \"the effect of knowledge of a possibly non-uniform prior ... should be explored\"; Γ-privacy's 1/Γ guess bound assumes uniform priors and degrades smoothly with skew")
	return []*Table{t}
}

func runE19(quick bool) []*Table {
	sizes := []int{10, 20, 40, 80, 160}
	if quick {
		sizes = []int{10, 20}
	}
	t := &Table{
		Title:  "E19: solver scaling on random chain instances (set constraints, share ≤ 2)",
		Header: []string{"n modules", "γ", "greedy cost", "greedy ms", "LP cost", "LP ms", "exact cost", "LP/greedy"},
	}
	for _, n := range sizes {
		p := gen.Problem(gen.ProblemConfig{Modules: n, MaxInputs: 2, Outputs: 1, Share: 2, Singletons: true}, 19+int64(n))
		start := time.Now()
		greedy := secureview.Greedy(p, secureview.Set)
		gMS := float64(time.Since(start).Microseconds()) / 1000
		gc := p.Cost(greedy)

		start = time.Now()
		rounded, _, err := secureview.SetLPRound(p)
		lMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("n=%d: %v", n, err)
			continue
		}
		rc := p.Cost(rounded)

		exactCost := "-"
		if n <= 12 {
			exact, err := secureview.ExactSet(p, 1<<22)
			if err == nil {
				exactCost = fmt.Sprintf("%.4g", p.Cost(exact))
			}
		}
		ratio := 0.0
		if gc > 0 {
			ratio = rc / gc
		}
		t.Add(n, p.DataSharing(), gc, gMS, rc, lMS, exactCost, ratio)
	}
	t.Note("shape expectation: greedy is linear-time and within (γ+1)×OPT here (Theorem 7); LP rounding pays simplex time but tracks the LP lower bound")
	return []*Table{t}
}

// runE20 measures what the internal/search engine buys over the naive
// Lemma 4 / Algorithm 2 loop: identical optimal costs with far fewer safety
// tests, thanks to cost-ordered exploration plus Proposition 1 pruning (and
// a worker pool on multi-core hosts). The cost model is the paper's natural
// one — hiding inputs costs more utility than hiding outputs — which is
// exactly where the naive loop's numeric scan order wastes its tests: cheap
// solutions live on the high (output) mask bits, so the naive loop burns an
// enormous prefix of the space before its cost bound engages (Theorem 3
// says the worst case stays exponential for everyone).
func runE20(quick bool) []*Table {
	ks := []int{8, 10, 12, 14}
	if quick {
		ks = []int{8, 10}
	}
	rng := rand.New(rand.NewSource(20))
	t := &Table{
		Title:  "E20: pruned parallel search vs naive brute force (random modules, c(input)=4, c(output)=1, Γ = 2^(k/2-1))",
		Header: []string{"k attrs", "Γ", "naive checked", "naive ms", "engine checked", "engine pruned", "engine ms", "check ratio", "speedup", "costs equal"},
	}
	for _, k := range ks {
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
		costs := make(privacy.Costs, k)
		for _, a := range in {
			costs[a] = 4
		}
		for _, a := range out {
			costs[a] = 1
		}
		gamma := uint64(1) << (k/2 - 1)

		sp, err := search.NewSpace(mv.Attrs(), costs.Of)
		if err != nil {
			t.Note("k=%d: %v", k, err)
			continue
		}
		safetyTest := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }

		start := time.Now()
		naive, err := sp.NaiveMinCost(safetyTest)
		naiveMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("k=%d naive: %v", k, err)
			continue
		}
		start = time.Now()
		engine, err := sp.MinCost(safetyTest, search.Options{})
		engineMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("k=%d engine: %v", k, err)
			continue
		}
		ratio := 0.0
		if naive.Stats.Checked > 0 {
			ratio = float64(naive.Stats.Checked) / math.Max(1, float64(engine.Stats.Checked))
		}
		speedup := 0.0
		if engineMS > 0 {
			speedup = naiveMS / engineMS
		}
		equal := naive.Found == engine.Found && (!naive.Found || naive.Cost == engine.Cost)
		t.Add(k, gamma, naive.Stats.Checked, naiveMS, engine.Stats.Checked,
			engine.Stats.Pruned, engineMS, ratio, speedup, equal)
	}
	t.Note("paper: Theorem 3 lower-bounds ANY algorithm at 2^Ω(k) tests; Proposition 1 monotonicity + cost ordering is what makes the practical cases cheap")
	return []*Table{t}
}

// SearchBenchInstance builds the standard oracle-bound benchmark instance
// shared by E20/E21, BenchmarkStandaloneSearch, BenchmarkCompiledOracle and
// the -benchjson trajectory of cmd/secureview-bench: a k-attribute random
// module with k/2 inputs, input hiding 4× more expensive than output hiding
// (the paper's natural utility model), and Γ forcing the optimum to hide
// most outputs — the regime where safety tests dominate wall-clock.
func SearchBenchInstance(k int) (privacy.ModuleView, privacy.Costs, uint64) {
	m, costs, gamma := searchBenchModule(k)
	return privacy.NewModuleView(m), costs, gamma
}

// SearchBenchWorkflow wraps the same standard benchmark instance in a
// single-module workflow, so session-level machinery (derivation caching,
// snapshot/restore, the HTTP serving path) can be measured on exactly the
// instances the standalone-search rows use.
func SearchBenchWorkflow(k int) (*workflow.Workflow, privacy.Costs, uint64) {
	m, costs, gamma := searchBenchModule(k)
	w, err := workflow.New(fmt.Sprintf("searchbench-%d", k), m)
	if err != nil {
		panic(fmt.Sprintf("exp: SearchBenchWorkflow(%d): %v", k, err))
	}
	return w, costs, gamma
}

func searchBenchModule(k int) (*module.Module, privacy.Costs, uint64) {
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
	costs := make(privacy.Costs, k)
	for _, a := range in {
		costs[a] = 4
	}
	for _, a := range out {
		costs[a] = 1
	}
	gamma := uint64(1) << (k - nIn - 1)
	return m, costs, gamma
}

// runE21 measures what compiling the safety oracle buys inside the engine
// search (the ISSUE 2 tentpole): the same pruned parallel exploration, with
// each surviving candidate's Lemma 4 test answered either by the
// interpreted path (schema resolution, string-keyed grouping, relation
// scans per call) or by the compiled integer-coded oracle (rows packed to
// uint64 codes once, each test a sort-and-scan with zero steady-state
// allocation). Optimal hidden sets and costs must be identical.
func runE21(quick bool) []*Table {
	ks := []int{10, 12, 14, 16}
	if quick {
		ks = []int{10, 12}
	}
	t := &Table{
		Title:  "E21: compiled integer-coded oracle vs interpreted Lemma 4 tests (engine search, c(input)=4, c(output)=1, Γ = 2^(k/2-1))",
		Header: []string{"k attrs", "rows", "Γ", "checked", "interp ms", "compiled ms", "speedup", "results equal"},
	}
	for _, k := range ks {
		mv, costs, gamma := SearchBenchInstance(k)
		sp, err := search.NewSpace(mv.Attrs(), costs.Of)
		if err != nil {
			t.Note("k=%d: %v", k, err)
			continue
		}
		interp := func(v search.Mask) (bool, error) { return mv.IsSafe(sp.NameSet(v), gamma) }
		comp, err := mv.Compile()
		if err != nil {
			t.Note("k=%d compile: %v", k, err)
			continue
		}
		compiled := func(v search.Mask) (bool, error) { return comp.IsSafe(oracle.Mask(v), gamma), nil }

		start := time.Now()
		ri, err := sp.MinCost(interp, search.Options{})
		interpMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("k=%d interpreted: %v", k, err)
			continue
		}
		start = time.Now()
		rc, err := sp.MinCost(compiled, search.Options{})
		compiledMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Note("k=%d compiled: %v", k, err)
			continue
		}
		speedup := 0.0
		if compiledMS > 0 {
			speedup = interpMS / compiledMS
		}
		equal := ri.Found == rc.Found && ri.Hidden == rc.Hidden && ri.Cost == rc.Cost
		t.Add(k, mv.Rel.Len(), gamma, rc.Stats.Checked, interpMS, compiledMS, speedup, equal)
	}
	t.Note("compile once per search, share across the worker pool: rows become uint64 input/output codes and each safety test is a few integer ops (internal/oracle)")
	return []*Table{t}
}

// runE22 sweeps the canonical generated topology classes (internal/gen)
// through the cross-solver differential harness (internal/gen/diff): every
// applicable solver on every instance, with the paper's invariants checked
// — exact == branch-and-bound == engine, greedy/LP feasibility plus
// approximation bounds, compiled-vs-interpreted oracle agreement on every
// subset, bitmask-compiled vs NameSet feasibility on every mask of small
// universes (the compiled masks column), and exhaustive possible-world
// verification on the small instances. The violations column must read 0
// everywhere.
func runE22(quick bool) []*Table {
	workflowSeeds, problemSeeds := int64(6), int64(25)
	if quick {
		workflowSeeds, problemSeeds = 2, 6
	}
	// One solve.Session across the sweep: the harness runs entirely through
	// the internal/solve registry, and derivations are shared across
	// instances the way a long-lived service would share them.
	sess := solve.NewSession()
	t1 := &Table{
		Title:  "E22a: differential harness over generated workflow classes",
		Header: []string{"class", "instances", "exact", "solver runs", "oracle masks", "compiled masks", "worlds verified", "max greedy/OPT", "max LP/OPT", "violations"},
	}
	for _, cl := range gen.Classes() {
		var rs []diff.Result
		for seed := int64(0); seed < workflowSeeds; seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t1.Note("%s seed %d: %v", cl.Name, seed, err)
				continue
			}
			rs = append(rs, diff.CheckInstance(it, diff.Options{Session: sess}))
		}
		r := diff.Merge(rs...)
		t1.Add(cl.Name, r.Instances, r.Exact, r.SolverRuns, r.OracleMasks, r.CompiledMasks,
			r.WorldsVerified, r.MaxGreedyRatio, r.MaxLPRatio, len(r.Violations))
		for _, v := range r.Violations {
			t1.Note("VIOLATION %s", v)
		}
	}
	t2 := &Table{
		Title:  "E22b: differential harness over generated abstract instance classes",
		Header: []string{"class", "instances", "solver runs", "compiled masks", "max greedy/OPT", "bound (mult)", "max LP/OPT", "violations"},
	}
	for _, pc := range gen.ProblemClasses() {
		var rs []diff.Result
		maxMult := 0
		for seed := int64(0); seed < problemSeeds; seed++ {
			p := gen.Problem(pc.Cfg, seed)
			if m := p.Multiplicity(); m > maxMult {
				maxMult = m
			}
			rs = append(rs, diff.CheckProblem(pc.Name, p, diff.Options{}))
		}
		r := diff.Merge(rs...)
		t2.Add(pc.Name, r.Instances, r.SolverRuns, r.CompiledMasks, r.MaxGreedyRatio, maxMult, r.MaxLPRatio, len(r.Violations))
		for _, v := range r.Violations {
			t2.Note("VIOLATION %s", v)
		}
	}
	t2.Note("invariants: greedy/LP feasible and >= OPT, greedy <= multiplicity×OPT on all-private instances (Theorem 7), rounded <= ℓmax×LP (Theorem 6), LP <= OPT, exact == engine (== brute force on ≤16-attribute cardinality universes), compiled ≡ interpreted oracle, compiled problem ≡ Problem.Feasible on every mask of ≤16-attribute universes and compiled-oracle engine ≡ reference-oracle engine, worlds-verified on small instances")
	return []*Table{t1, t2}
}

// runE23 times the solver matrix across generated instance SHAPES — the
// scenario counterpart of E19's size scaling: the same solvers meet chains,
// trees and layered DAGs with different sharing, function kinds and cost
// models, instead of one hand-written family. Every solver runs through the
// internal/solve registry; derivations go through a shared solve.Session
// (each (class, seed) is a distinct fingerprint, so the timed calls are all
// cache misses — the session is exercised, not flattered).
func runE23(quick bool) []*Table {
	reps := 3
	if quick {
		reps = 1
	}
	ctx := context.Background()
	sess := solve.NewSession()
	t := &Table{
		Title:  "E23: solver wall-clock across generated topology classes (medians over seeds)",
		Header: []string{"class", "modules", "attrs", "γ", "ℓmax", "derive ms", "greedy ms", "LP ms", "exact ms", "exact<=greedy"},
	}
	for _, cl := range gen.Classes() {
		var deriveMS, greedyMS, lpMS, exactMS []float64
		var modsR, attrsR, lmaxR intRange
		agree, compared := true, 0
		var gamma uint64
		for seed := int64(0); seed < int64(reps); seed++ {
			it, err := gen.New(cl.Cfg, seed)
			if err != nil {
				t.Note("%s seed %d: %v", cl.Name, seed, err)
				continue
			}
			modsR.add(len(it.W.Modules()))
			attrsR.add(it.W.Schema().Len())
			gamma = it.Gamma
			start := time.Now()
			p, err := sess.Problem(ctx, it.W, secureview.Set, it.Gamma, it.Costs, it.PrivatizeCosts)
			deriveMS = append(deriveMS, float64(time.Since(start).Microseconds())/1000)
			if err != nil {
				continue
			}
			lmaxR.add(p.LMax(secureview.Set))
			sOpts := solve.Options{Variant: secureview.Set}

			start = time.Now()
			greedy, gErr := solve.Solve(ctx, "greedy", p, sOpts)
			greedyMS = append(greedyMS, float64(time.Since(start).Microseconds())/1000)

			start = time.Now()
			_, lpErr := solve.Solve(ctx, "lp", p, sOpts)
			lpMS = append(lpMS, float64(time.Since(start).Microseconds())/1000)

			start = time.Now()
			exact, exErr := solve.Solve(ctx, "exact", p, sOpts)
			exactMS = append(exactMS, float64(time.Since(start).Microseconds())/1000)
			if gErr != nil || lpErr != nil || exErr != nil {
				t.Note("%s seed %d: greedy=%v lp=%v exact=%v", cl.Name, seed, gErr, lpErr, exErr)
				continue
			}
			compared++
			if exact.Cost > greedy.Cost+1e-9*(1+greedy.Cost) {
				agree = false
			}
		}
		if len(deriveMS) == 0 {
			t.Note("%s: no seed generated an instance", cl.Name)
			continue
		}
		agreeCell := "-" // no seed got both solvers to an answer
		if compared > 0 {
			agreeCell = fmt.Sprint(agree)
		}
		t.Add(cl.Name, modsR, attrsR, gamma, lmaxR, median(deriveMS), median(greedyMS),
			median(lpMS), median(exactMS), agreeCell)
	}
	t.Note("derive dominates on executable workflows (per-module 2^k engine sweeps); the solver mix then costs microseconds at these sizes — scenario BREADTH, not size, is what this experiment buys")
	return []*Table{t}
}

// intRange accumulates an int statistic across seeds and renders "v" when
// constant or "lo-hi" when the instance shape varies by seed (tree
// topologies, e.g., may add fallback inputs for some seeds).
type intRange struct {
	lo, hi int
	set    bool
}

func (r *intRange) add(v int) {
	if !r.set || v < r.lo {
		r.lo = v
	}
	if !r.set || v > r.hi {
		r.hi = v
	}
	r.set = true
}

func (r intRange) String() string {
	if !r.set {
		return "-"
	}
	if r.lo == r.hi {
		return fmt.Sprint(r.lo)
	}
	return fmt.Sprintf("%d-%d", r.lo, r.hi)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// randomShared builds a random all-private set-constraint instance whose
// data sharing is bounded by share.
func randomShared(n, share int, rng *rand.Rand) *secureview.Problem {
	p := &secureview.Problem{Costs: privacy.Costs{}}
	type prod struct {
		name      string
		consumers int
	}
	var avail []prod
	avail = append(avail, prod{"src", 0})
	p.Costs["src"] = 1 + rng.Float64()*4
	for i := 0; i < n; i++ {
		// Pick an available producer with spare sharing capacity.
		var in []string
		for tries := 0; tries < 10 && len(in) == 0; tries++ {
			j := rng.Intn(len(avail))
			if avail[j].consumers < share {
				avail[j].consumers++
				in = append(in, avail[j].name)
			}
		}
		if len(in) == 0 {
			in = append(in, "src")
		}
		out := fmt.Sprintf("d%d", i)
		p.Costs[out] = 1 + rng.Float64()*4
		setList := []secureview.SetReq{{Out: []string{out}}, {In: []string{in[0]}}}
		p.Modules = append(p.Modules, secureview.ModuleSpec{
			Name: fmt.Sprintf("m%d", i), Inputs: in, Outputs: []string{out},
			SetList: setList,
		})
		avail = append(avail, prod{out, 0})
	}
	return p
}
