// Command secureview-bench runs the reproduction experiments E1–E23 (the
// internal/exp registry) and prints their result tables.
//
// Usage:
//
//	secureview-bench            # run everything, full parameter sweeps
//	secureview-bench -quick     # trimmed sweeps (seconds, used in CI)
//	secureview-bench -exp E8    # a single experiment
//	secureview-bench -exp E20 -parallel 8
//	secureview-bench -exp E22 -quick                 # generated-scenario differential suite
//	secureview-bench -benchjson BENCH_results.json   # machine-readable perf trajectory
//	                                                 # (standalone-search/* and scenario/* rows)
//	secureview-bench -benchgate BENCH_results.json -quick   # CI perf gate: fail on >35%
//	                                                        # calibrated regression of gated rows
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"secureview/internal/exp"
	"secureview/internal/search"
)

func main() {
	var (
		id        = flag.String("exp", "", "run a single experiment (E1..E23)")
		quick     = flag.Bool("quick", false, "trim parameter sweeps")
		parallel  = flag.Int("parallel", 0, "subset-search worker-pool size (0 = GOMAXPROCS)")
		benchjson = flag.String("benchjson", "", "write machine-readable benchmark results to this JSON file and exit")
		benchgate = flag.String("benchgate", "", "re-measure and fail if gated rows regress vs this baseline JSON (CI perf gate)")
		timeout   = flag.Duration("timeout", 0, "overall deadline (0 = none); on expiry the experiments completed so far stand as partial results")
	)
	flag.Parse()
	search.SetDefaultParallelism(*parallel)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *benchgate != "" {
		if err := runBenchGate(*benchgate, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "secureview-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchjson != "" {
		// The writer only lands the file at the very end, so there is no
		// partial output to keep: an expired deadline simply abandons the run.
		done := make(chan error, 1)
		go func() { done <- writeBenchJSON(*benchjson, *quick) }()
		select {
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "secureview-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *benchjson)
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "secureview-bench: TIMED OUT after %v — %s not written\n", *timeout, *benchjson)
			os.Exit(3)
		}
		return
	}

	experiments := exp.Registry()
	if *id != "" {
		e := exp.Find(*id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "secureview-bench: unknown experiment %q\n", *id)
			os.Exit(2)
		}
		experiments = []exp.Experiment{*e}
	}
	for i, e := range experiments {
		fmt.Printf("# %s — %s\n\n", e.ID, e.Title)
		// Each experiment runs on its own goroutine so an expired deadline
		// surfaces between (not inside) experiments with a clean partial
		// message; the tables already printed are complete.
		done := make(chan []*exp.Table, 1)
		go func() { done <- e.Run(*quick) }()
		select {
		case tables := <-done:
			for _, tab := range tables {
				fmt.Println(tab.String())
			}
		case <-ctx.Done():
			fmt.Printf("TIMED OUT after %v — completed %d/%d experiments; tables above are complete partial results\n",
				*timeout, i, len(experiments))
			os.Exit(3)
		}
	}
}
