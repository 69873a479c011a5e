package secureview

// FuzzDeriveGenerated fuzzes the full spec → workflow → Secure-View
// derivation (both variants) → solver pipeline. Run actively with:
//
//	go test -fuzz=FuzzDeriveGenerated -fuzztime=30s .
//
// The seed corpus is NOT hand-written: it is every canonical generated
// topology class (internal/gen) serialized through the spec interchange
// format, so the fuzzer starts from realistic workflows — truth tables,
// public modules, non-boolean domains — and mutates from there. The
// invariants, in each variant: nothing in the pipeline may panic on any
// input, a derived instance must validate, and Greedy on a derived instance
// is feasible by construction (every private module gets at least one
// option).

import (
	"testing"

	"secureview/internal/gen"
	"secureview/internal/privacy"
	sv "secureview/internal/secureview"
	"secureview/internal/spec"
)

func FuzzDeriveGenerated(f *testing.F) {
	for _, cl := range gen.Classes() {
		it, err := gen.New(cl.Cfg, 1)
		if err != nil {
			f.Fatal(err)
		}
		doc, err := spec.FromWorkflow(it.W)
		if err != nil {
			f.Fatal(err)
		}
		doc.Gamma = it.Gamma
		doc.Costs = it.Costs
		doc.PrivatizeCosts = it.PrivatizeCosts
		raw, err := doc.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := spec.Parse(data)
		if err != nil {
			return
		}
		w, err := doc.Build()
		if err != nil {
			return
		}
		// Deriving enumerates each module's relation and 2^k subsets; keep
		// the fuzzed workflows within the budget the generator guarantees.
		if w.Schema().Len() > 12 {
			return
		}
		for _, m := range w.Modules() {
			if size, ok := m.InputDomainSize(); !ok || size > 256 {
				return
			}
			if m.Arity() > 10 {
				return
			}
		}
		gamma := doc.Gamma
		if gamma == 0 || gamma > 8 {
			gamma = 2
		}
		costs := make(privacy.Costs, len(doc.Costs))
		for a, c := range doc.Costs {
			if c >= 0 && c < 1e12 { // drop NaN/negative/absurd fuzzed costs
				costs[a] = c
			}
		}
		for _, v := range []sv.Variant{sv.Set, sv.Cardinality} {
			p, err := sv.Derive(w, v, sv.DeriveOptions{
				Gamma:          gamma,
				Costs:          costs,
				PrivatizeCosts: doc.PrivatizeCosts,
			})
			if err != nil {
				continue // infeasible at Γ: legitimate outcome
			}
			if err := p.Validate(v); err != nil {
				t.Fatalf("derived %v instance invalid: %v", v, err)
			}
			sol := sv.Greedy(p, v)
			if !p.Feasible(sol, v) {
				t.Fatalf("greedy solution infeasible on derived %v instance (hidden=%v privatized=%v)",
					v, sol.Hidden.Sorted(), sol.Privatized.Sorted())
			}
			if c := p.Cost(sol); c < 0 || c != c {
				t.Fatalf("greedy cost %v out of range", c)
			}
		}
	})
}
