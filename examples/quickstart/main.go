// Quickstart: the paper's running example (Figure 1) end to end.
//
// It builds the three-module boolean workflow, records every execution into
// a provenance store, asks for a 2-private view at minimum cost, and prints
// the published relation, the hidden attributes, and the JSON export a
// downstream user would receive.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"secureview/internal/privacy"
	"secureview/internal/provenance"
	"secureview/internal/workflow"
)

func main() {
	w := workflow.Fig1()
	fmt.Println(w)

	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d executions; full provenance relation R:\n%v\n",
		store.Size(), store.Relation())

	// Every attribute is equally valuable to users.
	costs := privacy.Uniform(w.Schema().Names()...)
	view, err := store.SecureView(context.Background(), 2, costs, nil, "exact")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Γ = %d secure view: hide %v at cost %.3g\n", view.Gamma, view.HiddenSorted(), view.Cost)
	if err := view.VerifyStandalone(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published view R_V:\n%v\n", view.Relation())

	// A user queries the view; hidden attributes are unreachable.
	cols := view.Visible.Sorted()[:2]
	q, err := view.Query(cols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user query π_%v(R_V):\n%v\n", cols, q)
	if _, err := view.Query(view.HiddenSorted()); err != nil {
		fmt.Printf("query on hidden attributes correctly refused: %v\n", err)
	}

	raw, err := view.ExportJSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nJSON export:\n%s\n", raw)
}
