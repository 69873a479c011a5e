package server_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"secureview/internal/ring"
	"secureview/internal/server"
)

func getJSON(t *testing.T, ts *httptest.Server, path string, dst any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp
}

// TestSnapshotRestoreOverHTTP is the operator's restart story end to end:
// populate a server, snapshot via POST /v1/snapshot, boot a second server
// from the file, and require byte-identical answers served from the
// restored Session (a hit, never a re-derivation). A corrupted file must
// boot a working cold server, never a broken one.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.snap")
	cfg := server.Config{SnapshotPath: path}

	a := server.MustNew(cfg)
	a.BootRestore(t.Logf) // no file yet: comes up cold and ready
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	// Populate: an engine solve over a spec (derives a problem through the
	// Session) and a generated-class solve.
	engineReq := server.SolveRequest{Spec: allPrivateDoc(t, `{"a1": 1, "a2": 2, "b1": 3, "b2": 4}`), Solver: "engine"}
	resp, raw := post(t, tsA, "/v1/solve", engineReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	first := decodeSolve(t, raw)
	genReq := server.SolveRequest{Generated: &server.GeneratedRef{Class: "sparse", Seed: 1}, Solver: "greedy"}
	resp, raw = post(t, tsA, "/v1/solve", genReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	genFirst := decodeSolve(t, raw)

	resp, raw = post(t, tsA, "/v1/snapshot", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, raw)
	}
	var sr server.SnapshotResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Path != path || sr.Bytes <= 0 {
		t.Fatalf("snapshot response %+v", sr)
	}
	var stA server.StatsResponse
	getJSON(t, tsA, "/v1/stats", &stA)
	if stA.Snapshot == nil || stA.Snapshot.LastBytes != sr.Bytes || stA.Snapshot.LastAgeSeconds < 0 {
		t.Fatalf("stats after snapshot: %+v", stA.Snapshot)
	}
	if stA.UptimeSeconds <= 0 || stA.StartTime == "" || !stA.Ready {
		t.Fatalf("lifetime stats: %+v", stA)
	}

	// Second process: restore from the file.
	b := server.MustNew(cfg)
	b.BootRestore(t.Logf)
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	if resp := getJSON(t, tsB, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restored server readyz %d", resp.StatusCode)
	}
	var stB server.StatsResponse
	getJSON(t, tsB, "/v1/stats", &stB)
	if stB.Snapshot == nil || !stB.Snapshot.RestoreHit || stB.Snapshot.RestoredEntries == 0 {
		t.Fatalf("restore not visible in stats: %+v", stB.Snapshot)
	}

	// The restored server must answer identically, as a Session hit with
	// zero misses.
	resp, raw = post(t, tsB, "/v1/solve", engineReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored solve status %d: %s", resp.StatusCode, raw)
	}
	out := decodeSolve(t, raw)
	if st := b.Session().Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restored solve was not served as a Session hit: %+v", st)
	}
	if out.Cost != first.Cost || strings.Join(out.Hidden, ",") != strings.Join(first.Hidden, ",") ||
		out.Fingerprint != first.Fingerprint {
		t.Fatalf("restored answer diverged: %+v vs %+v", out, first)
	}
	resp, raw = post(t, tsB, "/v1/solve", genReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	// Costs.Sum adds in sorted-key order, so repeated solves of the same
	// instance are bit-identical — exact equality, no ulp slack.
	if genOut := decodeSolve(t, raw); genOut.Cost != genFirst.Cost ||
		strings.Join(genOut.Hidden, ",") != strings.Join(genFirst.Hidden, ",") {
		t.Fatalf("restored generated answer diverged: %+v vs %+v", genOut, genFirst)
	}
	if st := b.Session().Stats(); st.Misses != 0 {
		t.Fatalf("restored server re-derived: %+v", st)
	}

	// Corrupt the file: the next boot must come up empty but working.
	rawSnap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rawSnap[len(rawSnap)/2] ^= 0xff
	if err := os.WriteFile(path, rawSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	c := server.MustNew(cfg)
	c.BootRestore(t.Logf)
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	if resp := getJSON(t, tsC, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt-restore readyz %d", resp.StatusCode)
	}
	var stC server.StatsResponse
	getJSON(t, tsC, "/v1/stats", &stC)
	if stC.Snapshot.RestoreHit || stC.Snapshot.RestoredEntries != 0 {
		t.Fatalf("corrupt snapshot claimed a restore: %+v", stC.Snapshot)
	}
	resp, raw = post(t, tsC, "/v1/solve", engineReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold server after corrupt restore: status %d: %s", resp.StatusCode, raw)
	}
	if cold := decodeSolve(t, raw); cold.Cost != first.Cost {
		t.Fatalf("cold re-solve diverged: %g vs %g", cold.Cost, first.Cost)
	}
}

// TestReadyzGatesOnBootRestore: with a snapshot path configured the server
// reports 503 until BootRestore settles; without one it is born ready.
func TestReadyzGatesOnBootRestore(t *testing.T) {
	gated := server.MustNew(server.Config{SnapshotPath: filepath.Join(t.TempDir(), "s.snap")})
	ts := httptest.NewServer(gated.Handler())
	defer ts.Close()
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before restore: %d", resp.StatusCode)
	}
	var st server.StatsResponse
	getJSON(t, ts, "/v1/stats", &st)
	if st.Ready {
		t.Fatal("stats claim ready before restore")
	}
	gated.BootRestore(nil)
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after restore: %d", resp.StatusCode)
	}

	plain := server.MustNew(server.Config{})
	tsP := httptest.NewServer(plain.Handler())
	defer tsP.Close()
	if resp := getJSON(t, tsP, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot-less readyz: %d", resp.StatusCode)
	}

	// POST /v1/snapshot without a configured path is a clean 409.
	resp, _ := post(t, tsP, "/v1/snapshot", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without path: %d", resp.StatusCode)
	}
}

// TestShardRingServing wires three replicas into one ring over httptest
// listeners and requires the sharding contract: every request returns the
// same answer regardless of entry replica, non-owned requests are proxied
// to their owner exactly once, and each replica serves locally exactly the
// requests whose route keys the ring assigns to it. The listeners' random
// ports place the replicas on the ring, so how many keys each one owns
// varies from run to run; the count it must report follows from the ring.
func TestShardRingServing(t *testing.T) {
	const n = 3
	handlers := make([]http.Handler, n)
	tss := make([]*httptest.Server, n)
	for i := range tss {
		i := i
		// Late-bound: the ring needs every replica's URL before any Server
		// exists, so the listeners start first and delegate once built.
		tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		defer tss[i].Close()
	}
	urls := make([]string, n)
	for i, ts := range tss {
		urls[i] = ts.URL
	}
	srvs := make([]*server.Server, n)
	for i := range srvs {
		s, err := server.New(server.Config{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		handlers[i] = s.Handler()
	}

	// A mixed key population: several generated classes and seeds plus a
	// spec document, enough keys that every replica owns some.
	var reqs []server.SolveRequest
	for _, class := range []string{"chain", "chain-injective", "tree", "layered"} {
		for seed := int64(0); seed < 3; seed++ {
			reqs = append(reqs, server.SolveRequest{
				Generated: &server.GeneratedRef{Class: class, Seed: seed}, Solver: "greedy",
			})
		}
	}
	reqs = append(reqs, server.SolveRequest{
		Spec: allPrivateDoc(t, `{"a1": 2, "a2": 1, "b1": 1, "b2": 4}`), Solver: "engine",
	})

	for ri, req := range reqs {
		var want server.SolveResponse
		for si, ts := range tss {
			resp, raw := post(t, ts, "/v1/solve", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("req %d via replica %d: status %d: %s", ri, si, resp.StatusCode, raw)
			}
			got := decodeSolve(t, raw)
			if si == 0 {
				want = got
				continue
			}
			// Solution, fingerprint, and cost must all be identical: Costs.Sum
			// adds in sorted-key order, so every replica computes the same
			// float64 bit pattern for the same cached problem.
			if strings.Join(got.Hidden, ",") != strings.Join(want.Hidden, ",") ||
				strings.Join(got.Privatized, ",") != strings.Join(want.Privatized, ",") ||
				got.Fingerprint != want.Fingerprint || got.Status != want.Status ||
				got.Cost != want.Cost {
				t.Fatalf("req %d: replica %d answered differently:\n%+v\nvs\n%+v", ri, si, got, want)
			}
		}
	}

	// Batches route per job: a batch sent to one replica must answer every
	// job correctly even when jobs belong to different owners.
	const batchJobs = 6
	resp, raw := post(t, tss[0], "/v1/batch", server.BatchRequest{Jobs: reqs[:batchJobs]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	for i, br := range batch.Results {
		if br.Code != http.StatusOK || br.Response == nil {
			t.Fatalf("batch job %d: %+v", i, br)
		}
	}

	// Routing accounting: each replica counted as owned exactly the requests
	// it received whose keys the ring assigns to it (every request went to
	// every replica, and the batch's jobs to replica 0), misses went to
	// their owner (proxied == forwarded across the fleet, both nonzero),
	// and no proxy fell back to local serving.
	rg, err := ring.New(urls[0], urls)
	if err != nil {
		t.Fatal(err)
	}
	wantOwned := make(map[string]int64, n)
	for ri, req := range reqs {
		key, ok := server.RouteKey(&req)
		if !ok {
			t.Fatalf("req %d has no route key", ri)
		}
		owner := rg.Owner(key)
		wantOwned[owner]++
		if ri < batchJobs && owner == urls[0] {
			wantOwned[owner]++
		}
	}
	var proxied, forwarded, fallbacks int64
	for i, ts := range tss {
		var st server.StatsResponse
		getJSON(t, ts, "/v1/stats", &st)
		if st.Ring == nil || st.Ring.Self != urls[i] || len(st.Ring.Nodes) != n {
			t.Fatalf("replica %d ring stats: %+v", i, st.Ring)
		}
		if st.Ring.OwnedLocal != wantOwned[urls[i]] {
			t.Fatalf("replica %d served %d requests as owner, the ring assigns it %d: %+v",
				i, st.Ring.OwnedLocal, wantOwned[urls[i]], st.Ring)
		}
		proxied += st.Ring.Proxied
		forwarded += st.Ring.Forwarded
		fallbacks += st.Ring.Fallbacks
	}
	if proxied == 0 || proxied != forwarded {
		t.Fatalf("proxy accounting: proxied %d, forwarded %d", proxied, forwarded)
	}
	if fallbacks != 0 {
		t.Fatalf("healthy ring recorded %d fallbacks", fallbacks)
	}

	// Each derived problem lives on exactly one replica: fleet-wide misses
	// equal the distinct key count, not keys × replicas.
	misses := 0
	for _, s := range srvs {
		misses += s.Session().Stats().Misses
	}
	if misses != len(reqs) {
		t.Fatalf("fleet derived %d problems for %d distinct keys (cache not sharded)", misses, len(reqs))
	}
}

// TestShardOwnerUnreachableFallsBack: when the owner is down, the entry
// replica serves the request locally instead of failing it.
func TestShardOwnerUnreachableFallsBack(t *testing.T) {
	// A dead peer address guaranteed to own some keys: bind-then-close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	handlers := make([]http.Handler, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlers[0].ServeHTTP(w, r)
	}))
	defer ts.Close()
	s, err := server.New(server.Config{Self: ts.URL, Peers: []string{ts.URL, deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	handlers[0] = s.Handler()

	sawFallback := false
	for seed := int64(0); seed < 12 && !sawFallback; seed++ {
		req := server.SolveRequest{
			Generated: &server.GeneratedRef{Class: "sparse", Seed: seed}, Solver: "greedy",
		}
		resp, raw := post(t, ts, "/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, raw)
		}
		var st server.StatsResponse
		getJSON(t, ts, "/v1/stats", &st)
		sawFallback = st.Ring.Fallbacks > 0
	}
	if !sawFallback {
		t.Fatal("no key routed to the dead owner across 12 seeds (vanishingly unlikely)")
	}
}

// TestGracefulShutdown drives the full Run lifecycle: SIGTERM while a solve
// is in flight must finish that response, write a final snapshot, and
// return cleanly.
func TestGracefulShutdown(t *testing.T) {
	stall := &stallSolver{
		name:    "test-stall-shutdown",
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	registerStall(t, stall)

	path := filepath.Join(t.TempDir(), "session.snap")
	s := server.MustNew(server.Config{SnapshotPath: path})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ln, sigs, t.Logf) }()

	url := "http://" + ln.Addr().String()
	waitReady := func() {
		for i := 0; i < 100; i++ {
			resp, err := http.Get(url + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("server never became ready")
	}
	waitReady()

	// Populate one real entry so the final snapshot has content ("chain" is
	// a workflow class, so it derives through the session cache; abstract
	// classes like "sparse" bypass it).
	body := `{"generated": {"class": "chain", "seed": 1}, "solver": "greedy"}`
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	// In-flight stalled solve, then SIGTERM mid-flight.
	stallDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/solve", "application/json",
			strings.NewReader(`{"generated": {"class": "sparse", "seed": 2}, "solver": "test-stall-shutdown"}`))
		if err != nil {
			stallDone <- -1
			return
		}
		resp.Body.Close()
		stallDone <- resp.StatusCode
	}()
	<-stall.started
	sigs <- syscall.SIGTERM

	// The drain must hold the response open until the solver finishes.
	select {
	case code := <-stallDone:
		t.Fatalf("in-flight solve returned %d before the solver finished", code)
	case <-time.After(150 * time.Millisecond):
	}
	close(stall.release)
	if code := <-stallDone; code != http.StatusOK {
		t.Fatalf("in-flight solve finished with %d during drain", code)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("no final snapshot: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("final snapshot is empty")
	}
	// The snapshot must restore, proving it was written after the drain.
	again := server.MustNew(server.Config{SnapshotPath: path})
	again.BootRestore(t.Logf)
	if st := again.Session().Stats(); st.Entries == 0 {
		t.Fatalf("final snapshot restored no entries: %+v", st)
	}
}

// TestPeersRequireSelf pins the misconfiguration error path.
func TestPeersRequireSelf(t *testing.T) {
	if _, err := server.New(server.Config{Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("peers without self accepted")
	}
	if _, err := server.New(server.Config{Self: "http://a:1", Peers: []string{"http://a:1", ""}}); err == nil {
		t.Fatal("empty peer accepted")
	}
}
