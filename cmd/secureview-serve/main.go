// Command secureview-serve exposes the internal/solve registry over
// HTTP/JSON: solve requests arrive as internal/spec workflow documents or
// as internal/gen (class, seed) scenario references, run under bounded
// admission with per-request deadlines, and return bound-certified results
// (Theorem 6/7 factors, LP lower bound) with partial incumbents on
// deadline. See internal/server for the endpoint and status semantics.
//
// Usage:
//
//	secureview-serve                       # listen on :8080
//	secureview-serve -addr 127.0.0.1:0     # free port, printed on startup
//	secureview-serve -inflight 32 -timeout 10s -session-mb 512
//
// Snapshot/restore (kill cold starts across restarts):
//
//	secureview-serve -snapshot-path /var/lib/secureview/session.snap
//
// restores the session cache on boot (/readyz serves 503 until done),
// rewrites the file every -snapshot-every and on SIGTERM, and accepts
// POST /v1/snapshot for on-demand writes.
//
// Shard mode (scale the cache horizontally): start every replica with the
// same -peers list and its own -self entry; requests hash over a
// consistent-hash ring and replicas proxy non-owned solves to the owner:
//
//	secureview-serve -addr :8081 -self http://h1:8081 \
//	  -peers http://h1:8081,http://h2:8081,http://h3:8081
//
// Try it:
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "generated": {"class": "chain", "seed": 1},
//	  "solver": "exact", "variant": "set"
//	}'
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"secureview/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		inflight     = flag.Int("inflight", 0, "max concurrent solve/batch requests before 429 (0 = 2×GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested deadlines")
		sessionMB    = flag.Int64("session-mb", 256, "Session cache budget in MiB; 0 = unbounded (no eviction — size the heap accordingly)")
		batchWorkers = flag.Int("batch-workers", 0, "jobs one batch runs at once (0 = GOMAXPROCS)")
		maxBatch     = flag.Int("max-batch", 64, "max jobs per batch request")
		snapPath     = flag.String("snapshot-path", "", "session snapshot file: restored on boot, rewritten periodically and on shutdown (empty = snapshots off)")
		snapEvery    = flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval (requires -snapshot-path; <=0 disables the ticker)")
		self         = flag.String("self", "", "this replica's base URL in -peers (scheme://host:port; required with -peers)")
		peers        = flag.String("peers", "", "comma-separated replica base URLs for shard mode (empty = single node)")
	)
	flag.Parse()

	if *sessionMB < 0 {
		fmt.Fprintf(os.Stderr, "secureview-serve: -session-mb must be >= 0 (0 = unbounded), got %d\n", *sessionMB)
		os.Exit(2)
	}
	sessionBytes := *sessionMB << 20
	if *sessionMB == 0 {
		sessionBytes = -1 // server Config: <0 = unbounded
	}
	every := *snapEvery
	if every <= 0 {
		every = -1 // server Config: <0 disables the periodic ticker
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			peerList = append(peerList, strings.TrimSpace(p))
		}
	}
	srv, err := server.New(server.Config{
		MaxInFlight:    *inflight,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		SessionBytes:   sessionBytes,
		BatchWorkers:   *batchWorkers,
		MaxBatchJobs:   *maxBatch,
		SnapshotPath:   *snapPath,
		SnapshotEvery:  every,
		Self:           *self,
		Peers:          peerList,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secureview-serve: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secureview-serve: %v\n", err)
		os.Exit(1)
	}
	// Print the resolved address so scripts (and humans) can use port 0.
	fmt.Printf("secureview-serve listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	logf := func(format string, args ...any) {
		fmt.Printf("secureview-serve: "+format+"\n", args...)
	}
	if err := srv.Run(ln, sig, logf); err != nil {
		fmt.Fprintf(os.Stderr, "secureview-serve: %v\n", err)
		os.Exit(1)
	}
}
