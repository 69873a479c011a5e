package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/server"
	"secureview/internal/spec"
)

// pinnedChain1Set is chain/1's set-variant response fingerprint (pinned in
// internal/solve too): clients chain edits by echoing it.
const pinnedChain1Set = "ca245b86644b198514f00711cd0ade535549cefecd44b9c5d386daddc43e433a"

// serve sends one /v1/solve body through h and returns the status and the
// body, a success's elapsedMs zeroed so two runs compare byte for byte.
func serve(t testing.TB, h http.Handler, ctx context.Context, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)).WithContext(ctx))
	out := rec.Body.Bytes()
	if rec.Code == http.StatusOK || rec.Code == http.StatusPartialContent {
		var resp server.SolveResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("decoding %s: %v", out, err)
		}
		resp.ElapsedMs = 0
		var err error
		if out, err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, string(out)
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// classRef is a /v1/solve request for a workflow class+seed.
func classRef(class string, seed int64, solver, variant string, gamma uint64) server.SolveRequest {
	return server.SolveRequest{Generated: &server.GeneratedRef{Class: class, Seed: seed},
		Solver: solver, Variant: variant, Gamma: gamma}
}

// specForm is the spec document of a generated class instance: the same
// workflow, Γ and costs, sent inline.
func specForm(t testing.TB, class string, seed int64) *spec.Document {
	t.Helper()
	rv, err := gen.Resolve(gen.InstanceRef{Class: class, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	it := rv.Instance
	doc, err := spec.FromWorkflow(it.W)
	if err != nil {
		t.Fatal(err)
	}
	doc.Gamma, doc.Costs, doc.PrivatizeCosts = it.Gamma, it.Costs, it.PrivatizeCosts
	return doc
}

// wantStats fails the test unless the server's Session counters read
// hits, misses and deltas.
func wantStats(t *testing.T, s *server.Server, what string, hits, misses, deltas int) {
	t.Helper()
	st := s.Session().Stats()
	if st.Hits != hits || st.Misses != misses || st.DeltaDerives != deltas {
		t.Fatalf("%s: %+v, want %d hits, %d misses, %d delta derives", what, st, hits, misses, deltas)
	}
}

// TestServedFingerprintPinnedAcrossPaths: a first request, an alias hit,
// the same instance sent as a spec document (a content hit) and a cost-only
// edit of that document (a delta) all serve the pinned fingerprint.
func TestServedFingerprintPinnedAcrossPaths(t *testing.T) {
	s := server.MustNew(server.Config{})
	h := s.Handler()
	ctx := context.Background()
	doc := specForm(t, "chain", 1)
	edited := *doc
	edited.Costs = make(map[string]float64, len(doc.Costs))
	for a, c := range doc.Costs {
		edited.Costs[a] = c + 1
	}
	steps := []struct {
		what                 string
		req                  server.SolveRequest
		hits, misses, deltas int
	}{
		{"first request", classRef("chain", 1, "exact", "set", 0), 0, 1, 0},
		{"alias hit", classRef("chain", 1, "exact", "set", 0), 1, 1, 0},
		{"spec form", server.SolveRequest{Spec: doc, Solver: "exact"}, 2, 1, 0},
		{"cost-only edit", server.SolveRequest{Spec: &edited, Solver: "exact"}, 2, 2, 1},
	}
	var first server.SolveResponse
	for i, st := range steps {
		code, body := serve(t, h, ctx, marshal(t, st.req))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", st.what, code, body)
		}
		resp := decodeSolve(t, []byte(body))
		if resp.Fingerprint != pinnedChain1Set {
			t.Fatalf("%s: fingerprint %s, want %s", st.what, resp.Fingerprint, pinnedChain1Set)
		}
		wantStats(t, s, st.what, st.hits, st.misses, st.deltas)
		if i == 0 {
			first = resp
		} else if i < 3 && !reflect.DeepEqual(resp, first) {
			t.Fatalf("%s: %+v, want the first response %+v", st.what, resp, first)
		}
	}
}

// TestClassRefMatchesSpecForm: a class reference and its spec-document
// form name one Session entry and get identical responses — hidden sets,
// costs and fingerprints — in both variants.
func TestClassRefMatchesSpecForm(t *testing.T) {
	s := server.MustNew(server.Config{})
	h := s.Handler()
	ctx := context.Background()
	misses := 0
	for _, c := range gen.Classes() {
		for seed := int64(0); seed < 3; seed++ {
			doc := specForm(t, c.Name, seed)
			for _, variant := range []string{"set", "cardinality"} {
				refCode, refBody := serve(t, h, ctx, marshal(t, classRef(c.Name, seed, "exact", variant, 0)))
				misses++
				specCode, specBody := serve(t, h, ctx, marshal(t,
					server.SolveRequest{Spec: doc, Solver: "exact", Variant: variant}))
				if refCode != specCode || refBody != specBody {
					t.Fatalf("%s/%d %s: class ref %d %s, spec form %d %s",
						c.Name, seed, variant, refCode, refBody, specCode, specBody)
				}
				if st := s.Session().Stats(); st.Misses != misses {
					t.Fatalf("%s/%d %s: the spec form missed the class ref's entry: %+v", c.Name, seed, variant, st)
				}
			}
		}
	}
}

// TestRefAliasesLandOnTheirEntries: Γ overrides, both spellings of the
// cardinality variant, and a full corpus ID versus a prefix each reach the
// right entry, and every response equals a fresh server's.
func TestRefAliasesLandOnTheirEntries(t *testing.T) {
	id := corpus.Entries()[len(corpus.Entries())-1].ID
	reqs := []server.SolveRequest{
		classRef("chain", 1, "exact", "set", 0),
		classRef("chain", 1, "exact", "", 0),    // same alias: "" parses as set
		classRef("chain", 1, "exact", "set", 2), // Γ 2 is the class's own: a content hit
		classRef("chain", 1, "exact", "set", 3),
		classRef("chain", 1, "exact", "card", 0),
		classRef("chain", 1, "exact", "cardinality", 0), // same alias as "card"
		classRef("chain", 2, "exact", "set", 0),
		{Corpus: id, Solver: "greedy"},
		{Corpus: id[:6], Solver: "greedy"},       // another alias, a content hit
		{Corpus: id, Solver: "greedy", Gamma: 3}, // infeasible: a cached 422
	}
	wantCode, want := make([]int, len(reqs)), make([]string, len(reqs))
	for i, r := range reqs {
		wantCode[i], want[i] = serve(t, server.MustNew(server.Config{}).Handler(), context.Background(), marshal(t, r))
	}
	s := server.MustNew(server.Config{})
	h := s.Handler()
	for pass := 0; pass < 2; pass++ {
		for k := range reqs {
			i := k
			if pass == 1 {
				i = len(reqs) - 1 - k
			}
			if code, body := serve(t, h, context.Background(), marshal(t, reqs[i])); code != wantCode[i] || body != want[i] {
				t.Fatalf("pass %d request %d: %d %s, want a fresh server's %d %s",
					pass, i, code, body, wantCode[i], want[i])
			}
		}
		if pass == 0 {
			// Distinct instances: chain/1 set at Γ 2 and Γ 3, chain/1
			// cardinality, chain/2, the corpus entry at its Γ and Γ 3.
			wantStats(t, s, "first pass", len(reqs)-6, 6, 0)
		}
	}
	wantStats(t, s, "second pass", 2*len(reqs)-6, 6, 0)
}

// TestRefAliasEdgeCases covers what must not change: a cached ErrInfeasible
// comes back through an alias as the same 422, a request naming two sources
// still gets gen.Resolve's 400 after the class's alias is bound, abstract
// classes bypass the Session, and a cancelled request binds nothing.
func TestRefAliasEdgeCases(t *testing.T) {
	s := server.MustNew(server.Config{})
	h := s.Handler()
	ctx := context.Background()

	huge := marshal(t, classRef("chain", 1, "exact", "set", 1<<40))
	code, first := serve(t, h, ctx, huge)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("Γ 2^40: status %d: %s", code, first)
	}
	if code, again := serve(t, h, ctx, huge); code != http.StatusUnprocessableEntity || again != first {
		t.Fatalf("cached infeasible through the alias: %d %s, want 422 %s", code, again, first)
	}
	wantStats(t, s, "infeasible", 1, 1, 0)

	ref := classRef("chain", 1, "exact", "set", 0)
	if code, body := serve(t, h, ctx, marshal(t, ref)); code != http.StatusOK {
		t.Fatalf("chain/1: %d %s", code, body)
	}
	both := ref
	both.Spec = specForm(t, "chain", 1)
	code, body := serve(t, h, ctx, marshal(t, both))
	if code != http.StatusBadRequest || !strings.Contains(body, "exactly one of") {
		t.Fatalf("spec and generated: %d %s, want gen.Resolve's 400", code, body)
	}
	wantStats(t, s, "two sources", 1, 2, 0)

	for i := 0; i < 2; i++ {
		if code, body := serve(t, h, ctx, marshal(t, classRef("sparse", 1, "greedy", "set", 0))); code != http.StatusOK {
			t.Fatalf("abstract class: %d %s", code, body)
		}
	}
	wantStats(t, s, "abstract class", 1, 2, 0)

	dead, cancel := context.WithCancel(ctx)
	cancel()
	tree := marshal(t, classRef("tree", 1, "exact", "set", 0))
	if code, body := serve(t, h, dead, tree); code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled request: %d %s, want 504", code, body)
	}
	wantStats(t, s, "cancelled request", 1, 2, 0)
	for hits := 1; hits <= 2; hits++ {
		if code, body := serve(t, h, ctx, tree); code != http.StatusOK {
			t.Fatalf("tree/1 after a cancelled request: %d %s", code, body)
		}
		wantStats(t, s, "tree/1 after a cancelled request", hits, 3, 0)
	}
}

// TestRefAliasConcurrentFirstRequests: concurrent first requests for one
// reference derive once (run under -race in CI).
func TestRefAliasConcurrentFirstRequests(t *testing.T) {
	const n = 8
	s := server.MustNew(server.Config{MaxInFlight: 2 * n})
	h := s.Handler()
	body := marshal(t, classRef("layered", 2, "exact", "set", 0))
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			var resp server.SolveResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
				bodies[i] = rec.Body.String()
				return
			}
			resp.ElapsedMs = 0
			raw, _ := json.Marshal(resp)
			bodies[i] = string(raw)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if b != bodies[0] || !strings.Contains(b, `"fingerprint"`) {
			t.Fatalf("request %d: %s, request 0: %s", i, b, bodies[0])
		}
	}
	wantStats(t, s, "concurrent first requests", n-1, 1, 0)
}

// BenchmarkServeCachedRef times the cached reference path in process: one
// /v1/solve request through Handler() per op, cycling over the cached-mix
// workload's pool (every workflow class at seeds 0-2 under greedy, exact,
// lp and portfolio, plus every corpus entry under greedy) after a warm-up
// pass has derived every instance.
func BenchmarkServeCachedRef(b *testing.B) {
	var bodies [][]byte
	for _, c := range gen.Classes() {
		for seed := int64(0); seed < 3; seed++ {
			for _, solver := range []string{"greedy", "exact", "lp", "portfolio"} {
				bodies = append(bodies, marshal(b, classRef(c.Name, seed, solver, "", 0)))
			}
		}
	}
	for _, e := range corpus.Entries() {
		bodies = append(bodies, marshal(b, server.SolveRequest{Corpus: e.ID, Solver: "greedy"}))
	}
	h := server.MustNew(server.Config{}).Handler()
	send := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		send(body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(bodies[i%len(bodies)])
	}
	b.ReportMetric(float64(len(bodies)), "pool")
}
