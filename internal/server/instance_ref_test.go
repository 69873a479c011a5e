package server_test

import (
	"net/http"
	"strings"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/provenance"
	"secureview/internal/server"
)

// demoCSV exports the demo workflow's full provenance log through the
// provenance store — the same CSV shape the import path validates.
func demoCSV(t testing.TB) string {
	t.Helper()
	doc := parseDoc(t)
	w, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(w)
	if err := store.RecordAll(1 << 12); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := store.ExportCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSolveCorpus round-trips corpus-ID requests: full ID, unique prefix,
// cardinality variant (corpus entries are ordinary workflow instances),
// and the unknown-ID rejection.
func TestSolveCorpus(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	entries := corpus.Entries()
	cheap := entries[len(entries)-1] // hardest-first order: last is cheapest to solve

	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		Corpus: cheap.ID, Solver: "exact", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus %s: status %d: %s", cheap.ID, resp.StatusCode, raw)
	}
	full := decodeSolve(t, raw)
	if full.Status != "optimal" || len(full.Hidden) == 0 {
		t.Fatalf("corpus solve: %+v", full)
	}

	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Corpus: cheap.ID[:8], Solver: "exact", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus prefix: status %d: %s", resp.StatusCode, raw)
	}
	if pre := decodeSolve(t, raw); pre.Cost != full.Cost {
		t.Fatalf("prefix resolved to a different instance: cost %g vs %g", pre.Cost, full.Cost)
	}

	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Corpus: cheap.ID, Solver: "greedy", Variant: "cardinality",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus cardinality: status %d: %s", resp.StatusCode, raw)
	}

	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Corpus: "ffffffffffff", Solver: "exact",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown corpus ID: status %d: %s", resp.StatusCode, raw)
	}
}

// TestSolveCSV round-trips a recorded provenance log: the set variant
// derives under partial-log semantics, the cardinality variant is
// rejected, and an inconsistent log is rejected at import.
func TestSolveCSV(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	csv := demoCSV(t)

	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		CSV: &gen.CSVRef{Spec: parseDoc(t), Data: csv}, Solver: "exact", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv solve: status %d: %s", resp.StatusCode, raw)
	}
	if out := decodeSolve(t, raw); out.Status != "optimal" || len(out.Hidden) == 0 || out.Cost <= 0 {
		t.Fatalf("csv solve: %+v", out)
	}

	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		CSV: &gen.CSVRef{Spec: parseDoc(t), Data: csv}, Solver: "exact", Variant: "cardinality",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("csv cardinality not rejected: status %d: %s", resp.StatusCode, raw)
	}

	// A log row inconsistent with the workflow functionality (flip maps
	// a1=0 to a2=1, so 0,0,0 is not provenance of this workflow).
	bad := "a1,a2,a3\n0,0,0\n"
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		CSV: &gen.CSVRef{Spec: parseDoc(t), Data: bad}, Solver: "exact",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inconsistent csv not rejected: status %d: %s", resp.StatusCode, raw)
	}
}

// TestSolveSourceValidation: the four instance sources are mutually
// exclusive, and at least one is required.
func TestSolveSourceValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{Solver: "exact"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sourceless request: status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{
		Spec: parseDoc(t), Corpus: corpus.Entries()[0].ID, Solver: "exact",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two-source request: status %d: %s", resp.StatusCode, raw)
	}
}
