package diff_test

import (
	"os"
	"path/filepath"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/gen/diff"
	"secureview/internal/secureview"
	"secureview/internal/spec"
)

// loadFixture reads one committed workflow-spec + provenance-CSV pair from
// internal/gen's testdata.
func loadFixture(t *testing.T, name string) *gen.CSVRef {
	t.Helper()
	dir := filepath.Join("..", "testdata")
	raw, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return &gen.CSVRef{Spec: doc, Data: string(data)}
}

// TestCSVFixtures drives the provenance-CSV importer path end to end on
// the committed real-shaped workflow fixtures: CSV -> InstanceRef ->
// partial-log derivation in both variants -> differential-harness
// invariants.
func TestCSVFixtures(t *testing.T) {
	for _, name := range []string{"genomics", "etl"} {
		t.Run(name, func(t *testing.T) {
			ref := gen.InstanceRef{CSV: loadFixture(t, name)}
			rv, err := gen.Resolve(ref)
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if rv.Instance.Recorded == nil {
				t.Fatal("CSV resolution did not attach the recorded log")
			}
			full := uint64(1)
			for _, a := range rv.Instance.W.InitialInputs() {
				full *= uint64(a.Domain)
			}
			if uint64(rv.Instance.Recorded.Len()) >= full {
				t.Fatalf("fixture log is not partial: %d rows over %d executions", rv.Instance.Recorded.Len(), full)
			}
			for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
				p, err := rv.Instance.Derive(v)
				if err != nil {
					t.Fatalf("%v derive: %v", v, err)
				}
				if err := p.Validate(v); err != nil {
					t.Fatalf("derived %v problem invalid: %v", v, err)
				}
				if len(p.UsefulAttributes(v)) == 0 {
					t.Fatalf("derived %v problem has no useful attributes", v)
				}
			}

			r := diff.CheckRef(ref, diff.Options{})
			if len(r.Violations) > 0 {
				t.Fatalf("harness violations: %v", r.Violations)
			}
			if r.Exact == 0 {
				t.Fatal("harness anchored no exact optimum on the fixture")
			}
		})
	}
}

// TestCSVFixtureRejectsForeignLog: rows that are not provenance of the
// fixture workflow must fail the import, not silently derive.
func TestCSVFixtureRejectsForeignLog(t *testing.T) {
	ref := loadFixture(t, "genomics")
	// align is xor(reads, ref), so reads=0, ref=0 must produce bam=0 — this
	// row claims bam=1.
	ref.Data = "reads,ref,bam,variants,report\n0,0,1,0,0\n"
	if _, err := gen.Resolve(gen.InstanceRef{CSV: ref}); err == nil {
		t.Fatal("inconsistent log resolved")
	}
}
