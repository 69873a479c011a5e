package server_test

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/provenance"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
	"secureview/internal/spec"
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

// genomicsCSV reads internal/gen's committed genomics fixture: a workflow
// document and a partial log of its executions.
func genomicsCSV(t *testing.T) *gen.CSVRef {
	t.Helper()
	dir := filepath.Join("..", "gen", "testdata")
	raw, err := os.ReadFile(filepath.Join(dir, "genomics.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "genomics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return &gen.CSVRef{Spec: doc, Data: string(data)}
}

// TestSolveCSV round-trips a recorded provenance log: both variants derive
// under partial-log semantics, and an inconsistent log is rejected at
// import.
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

	// A cardinality request is served from the log: on the genomics
	// fixture, align's list is {(0,1), (2,0)} over the log and
	// {(0,1), (1,0)} over its full functionality, and the response is the
	// exact optimum of the log's derivation.
	ref := genomicsCSV(t)
	rv, err := gen.Resolve(gen.InstanceRef{CSV: ref})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rv.Instance.Derive(secureview.Cardinality)
	if err != nil {
		t.Fatal(err)
	}
	unlogged := *rv.Instance
	unlogged.Recorded = nil
	pFull, err := unlogged.Derive(secureview.Cardinality)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    *secureview.Problem
		want []secureview.CardReq
	}{
		{p, []secureview.CardReq{{Alpha: 0, Beta: 1}, {Alpha: 2, Beta: 0}}},
		{pFull, []secureview.CardReq{{Alpha: 0, Beta: 1}, {Alpha: 1, Beta: 0}}},
	} {
		if got := moduleSpec(t, c.p, "align").CardList; !reflect.DeepEqual(got, c.want) {
			t.Fatalf("align's cardinality list %v, want %v", got, c.want)
		}
	}
	want, err := solve.Solve(context.Background(), "exact", p, solve.Options{Variant: secureview.Cardinality})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw = post(t, ts, "/v1/solve", server.SolveRequest{CSV: ref, Solver: "exact", Variant: "cardinality"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv cardinality: status %d: %s", resp.StatusCode, raw)
	}
	out := decodeSolve(t, raw)
	if out.Status != "optimal" || out.Variant != "cardinality" || out.Cost != want.Cost ||
		!slices.Equal(out.Hidden, want.Solution.Hidden.Sorted()) ||
		!slices.Equal(out.Privatized, want.Solution.Privatized.Sorted()) ||
		out.Fingerprint != solve.ProblemFingerprint(p, secureview.Cardinality) {
		t.Fatalf("csv cardinality: %+v, want the exact optimum %v (cost %v) of the log's derivation",
			out, want.Solution.Hidden.Sorted(), want.Cost)
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

// moduleSpec returns the named module of p.
func moduleSpec(t *testing.T, p *secureview.Problem, name string) secureview.ModuleSpec {
	t.Helper()
	for _, m := range p.Modules {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no module %q", name)
	return secureview.ModuleSpec{}
}
