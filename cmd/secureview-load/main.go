// Command secureview-load drives a mixed workload against a running
// secureview-serve instance and prints a JSON report: latency percentiles
// (p50/p99/max), throughput, and error/429 counts. The mix covers single
// solves of generated scenarios, batches, and cost-only edit chains —
// see internal/load for the exact shapes.
//
// Usage:
//
//	secureview-load -url http://localhost:8080 -duration 10s -workers 8
//
// The exit code is 0 when the run completed with zero errors (429
// rejections are load shedding, not errors) and 1 otherwise, so CI smoke
// steps can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"secureview/internal/load"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "base URL of the server under load")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		workers  = flag.Int("workers", 4, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "workload shuffle seed (same seed = same request streams)")
		timeout  = flag.Duration("request-timeout", 30*time.Second, "per-request client timeout")
	)
	flag.Parse()

	rep, err := load.Run(load.Config{
		BaseURL:  *url,
		Duration: *duration,
		Workers:  *workers,
		Seed:     *seed,
		Client:   &http.Client{Timeout: *timeout},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secureview-load: %v\n", err)
		os.Exit(2)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "secureview-load: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "secureview-load: %d request errors\n", rep.Errors)
		os.Exit(1)
	}
}
