package provenance

import (
	"context"
	"strings"
	"testing"

	"secureview/internal/privacy"
	"secureview/internal/workflow"
)

func TestCSVExportImportRoundTrip(t *testing.T) {
	src := fig1Store(t)
	var buf strings.Builder
	if err := src.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewStore(workflow.Fig1())
	if err := dst.ImportCSV(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if !dst.Relation().Equal(src.Relation()) {
		t.Fatal("round trip changed the log")
	}
}

func TestImportCSVRejectsForgedRows(t *testing.T) {
	// A row whose intermediate values contradict the module functionality
	// is not provenance of this workflow (integrity check).
	dst := NewStore(workflow.Fig1())
	forged := "a1,a2,a3,a4,a5,a6,a7\n0,0,1,1,1,1,0\n" // a3 should be 0 for (0,0)
	if err := dst.ImportCSV(strings.NewReader(forged)); err == nil {
		t.Fatal("forged row accepted")
	}
	valid := "a1,a2,a3,a4,a5,a6,a7\n0,0,0,1,1,1,0\n"
	if err := dst.ImportCSV(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if dst.Size() != 1 {
		t.Fatalf("size = %d, want 1", dst.Size())
	}
}

func TestViewExportCSVHidesColumns(t *testing.T) {
	s := fig1Store(t)
	view, err := s.SecureView(context.Background(), 2, privacy.Uniform(s.Workflow().Schema().Names()...), nil, "exact")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := view.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, h := range view.HiddenSorted() {
		for _, col := range strings.Split(header, ",") {
			if col == h {
				t.Errorf("hidden attribute %q exported", h)
			}
		}
	}
}
