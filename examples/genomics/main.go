// Genomics: the motivating scenario of the paper's introduction — a
// pipeline with a proprietary genetic-disorder susceptibility module whose
// input/output behaviour must stay private, wired between public
// reformatting steps.
//
// The pipeline (booleans stand in for real data categories):
//
//	normalize (public)  : raw0..raw3      -> snp0..snp3    (identity reformat)
//	susceptibility (PRIVATE): snp0..snp3  -> risk0, risk1  (proprietary table)
//	score (PRIVATE)     : risk0, risk1    -> score, conf   (proprietary table)
//	report (public)     : score, conf     -> report        (parity reformat)
//
// The owner prices attributes by clinical value and asks for Γ = 4: an
// adversary seeing the published provenance must not be able to narrow the
// susceptibility module's output below 4 candidates for any input.
//
// Run with: go run ./examples/genomics
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/provenance"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

func main() {
	rng := rand.New(rand.NewSource(2026))

	normalize := module.Identity("normalize",
		[]string{"raw0", "raw1", "raw2", "raw3"},
		[]string{"snp0", "snp1", "snp2", "snp3"}).AsPublic()
	susceptibility := module.Random("susceptibility",
		relation.Bools("snp0", "snp1", "snp2", "snp3"),
		relation.Bools("risk0", "risk1"), rng)
	score := module.Random("score",
		relation.Bools("risk0", "risk1"),
		relation.Bools("score", "conf"), rng)
	report := module.Xor("report", []string{"score", "conf"}, "report").AsPublic()

	w := workflow.MustNew("genomics", normalize, susceptibility, score, report)
	fmt.Println(w)

	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 12); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d executions\n", store.Size())

	// Clinical value of each attribute: SNPs are cheap to hide, risk and
	// report columns are what collaborators want to see.
	costs := privacy.Costs{
		"raw0": 1, "raw1": 1, "raw2": 1, "raw3": 1,
		"snp0": 2, "snp1": 2, "snp2": 2, "snp3": 2,
		"risk0": 6, "risk1": 6, "score": 8, "conf": 5, "report": 9,
	}
	privatize := map[string]float64{"normalize": 3, "report": 3}

	for _, solver := range []string{"exact", "greedy", "lp"} {
		view, err := store.SecureView(context.Background(), 4, costs, privatize, solver)
		if err != nil {
			log.Fatal(err)
		}
		if err := view.VerifyStandalone(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s: hide %v, privatize %v, cost %.3g\n",
			solver, view.HiddenSorted(), view.Privatized.Sorted(), view.Cost)
	}

	view, err := store.SecureView(context.Background(), 4, costs, privatize, "exact")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npublished columns: %v\n", view.Relation().Schema().Names())
	fmt.Printf("public module names exposed as: normalize=%q report=%q\n",
		view.ModuleName("normalize"), view.ModuleName("report"))
}
