package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/server"
)

// FuzzSolveRequest posts arbitrary bytes to /v1/solve twice, on a fresh
// server with a small Session and a short deadline cap. No input may panic
// or get a 500; every status is one the endpoint documents; and a 200
// repeats with the same body, elapsedMs zeroed. The repeat runs through the
// Session entry, or the reference alias, that the first request left.
//
// Two readings of "the same body" are the solver's, not the cache's: a
// multi-worker engine search's counters depend on scheduling (its answer
// does not), so they are zeroed; and the repeat may instead report the
// deadline (206 or 504), when the solve races the request's own timeout.
func FuzzSolveRequest(f *testing.F) {
	solvers := []string{"greedy", "exact", "lp", "portfolio"}
	i := 0
	for _, c := range gen.Classes() {
		for seed := int64(0); seed < 3; seed++ {
			f.Add([]byte(fmt.Sprintf(`{"generated":{"class":%q,"seed":%d},"solver":%q}`, c.Name, seed, solvers[i%len(solvers)])))
			i++
		}
	}
	id := corpus.Entries()[len(corpus.Entries())-1].ID
	f.Add([]byte(fmt.Sprintf(`{"corpus":%q,"solver":"greedy"}`, id)))
	f.Add([]byte(fmt.Sprintf(`{"corpus":%q,"solver":"exact","variant":"card"}`, id[:6])))
	f.Add([]byte(`{"generated":{"class":"chain","seed":1},"solver":"exact","gamma":3}`))
	f.Add([]byte(`{"generated":{"class":"chain","seed":1},"solver":"exact","variant":"cardinality"}`))
	f.Add([]byte(`{"spec":` + demoDoc + `,"solver":"lp","variant":"set"}`))
	f.Add([]byte(`{"generated":{"class":"sparse","seed":1},"solver":"approx-setcover"}`))
	f.Add([]byte(`{"generated":{"class":"chain","seed":1},"solver":`))
	// CSV refs from the demo document's exported log: a set solve, a
	// cardinality solve and a row the workflow cannot produce.
	for _, req := range []server.SolveRequest{
		{CSV: &gen.CSVRef{Spec: parseDoc(f), Data: demoCSV(f)}, Solver: "exact"},
		{CSV: &gen.CSVRef{Spec: parseDoc(f), Data: demoCSV(f)}, Solver: "greedy", Variant: "cardinality"},
		{CSV: &gen.CSVRef{Spec: parseDoc(f), Data: "a1,a2,a3\n0,0,0\n"}, Solver: "exact"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// An lp solve whose bound's last bit depends on the order of its LP
	// rows.
	f.Add([]byte(`{"generated":{"class":"shared","seed":1},"solver":"lp"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := server.MustNew(server.Config{SessionBytes: 64 << 10, MaxTimeout: 300 * time.Millisecond}).Handler()
		first, firstBody := fuzzPost(t, h, body)
		second, secondBody := fuzzPost(t, h, body)
		if first == http.StatusOK && !(second == http.StatusOK && secondBody == firstBody ||
			second == http.StatusPartialContent || second == http.StatusGatewayTimeout) {
			t.Fatalf("a 200 did not repeat:\n%d %s\n%d %s", first, firstBody, second, secondBody)
		}
	})
}

// fuzzPost sends body to /v1/solve, checks the status, and returns it with
// the response body in comparable form.
func fuzzPost(t *testing.T, h http.Handler, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusPartialContent, http.StatusBadRequest,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
	default:
		t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
	}
	if rec.Code != http.StatusOK {
		return rec.Code, rec.Body.String()
	}
	var resp server.SolveResponse
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("200 body %s: %v", rec.Body, err)
	}
	resp.ElapsedMs = 0
	if strings.Contains(resp.Solver, "engine") {
		resp.Counters = server.CountersSpec{}
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(raw)
}
