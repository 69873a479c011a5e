// Workload: cost assignments derived from an expected query workload.
//
// The paper prices each attribute by "the utility lost to the user when the
// data value is hidden" (section 1) but leaves the pricing source open.
// Here the owner declares the SPJ queries users actually run (with
// weights); hiding an attribute then costs the weight of the queries it
// breaks. The same workflow gets different secure views as the workload
// shifts — and the engine answers the surviving queries directly.
//
// Run with: go run ./examples/workload
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"

	"secureview/internal/provenance"
	"secureview/internal/query"
	"secureview/internal/workflow"
)

func main() {
	w := workflow.Fig1()
	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 10); err != nil {
		log.Fatal(err)
	}

	workloads := map[string]query.Workload{
		"analysts (final outputs)": {
			{Query: query.Query{Name: "outcomes", Project: []string{"a1", "a2", "a6", "a7"}}, Weight: 90},
			{Query: query.Query{Name: "drill", Select: []query.Predicate{{Attr: "a6", Value: 1}}, Project: []string{"a7"}}, Weight: 10},
		},
		"debuggers (intermediates)": {
			{Query: query.Query{Name: "trace", Project: []string{"a3", "a4", "a5"}}, Weight: 80},
			{Query: query.Query{Name: "outcomes", Project: []string{"a6"}}, Weight: 20},
		},
	}

	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		wl := workloads[name]
		view, utility, err := store.SecureViewForWorkload(context.Background(), 2, wl, nil, "exact")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  hide %v (cost %.4g), retained utility %.0f%%\n",
			view.HiddenSorted(), view.Cost, utility*100)
		for _, e := range wl {
			res, err := view.Answer(e.Query)
			if err != nil {
				fmt.Printf("  %-10s %-55s -> refused (%v)\n", e.Query.Name, e.Query, err)
				continue
			}
			fmt.Printf("  %-10s %-55s -> %d rows\n", e.Query.Name, e.Query, res.Len())
		}
		fmt.Println()
	}
}
