package provenance

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

func TestRecordAndSize(t *testing.T) {
	s := NewStore(workflow.Fig1())
	if err := s.Record(relation.Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(relation.Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1 {
		t.Fatalf("size = %d after duplicate record, want 1", s.Size())
	}
	if err := s.Record(relation.Tuple{9, 9}); err == nil {
		t.Error("invalid input accepted")
	}
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4 {
		t.Fatalf("size = %d after RecordAll, want 4", s.Size())
	}
}

func TestSecureViewFig1(t *testing.T) {
	s := NewStore(workflow.Fig1())
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Uniform(s.Workflow().Schema().Names()...)
	for _, solver := range []string{"exact", "greedy", "lp"} {
		t.Run(solver, func(t *testing.T) {
			v, err := s.SecureView(context.Background(), 2, costs, nil, solver)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.VerifyStandalone(); err != nil {
				t.Fatal(err)
			}
			if v.Gamma != 2 || v.Cost <= 0 {
				t.Errorf("gamma=%d cost=%v", v.Gamma, v.Cost)
			}
			// The published relation has only visible columns.
			for _, n := range v.Relation().Schema().Names() {
				if v.Hidden.Has(n) {
					t.Errorf("hidden attribute %q in published view", n)
				}
			}
		})
	}
}

func TestSecureViewExactNoWorseThanOthers(t *testing.T) {
	s := NewStore(workflow.Fig1())
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Uniform(s.Workflow().Schema().Names()...)
	exact, err := s.SecureView(context.Background(), 2, costs, nil, "exact")
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := s.SecureView(context.Background(), 2, costs, nil, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := s.SecureView(context.Background(), 2, costs, nil, "lp")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cost > greedy.Cost || exact.Cost > lp.Cost {
		t.Errorf("exact %v worse than greedy %v or lp %v", exact.Cost, greedy.Cost, lp.Cost)
	}
}

func TestQueryRespectsVisibility(t *testing.T) {
	s := NewStore(workflow.Fig1())
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Uniform(s.Workflow().Schema().Names()...)
	v, err := s.SecureView(context.Background(), 2, costs, nil, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.HiddenSorted()) == 0 {
		t.Fatal("no hidden attributes")
	}
	hidden := v.HiddenSorted()[0]
	if _, err := v.Query([]string{hidden}); err == nil {
		t.Error("query over hidden attribute succeeded")
	}
	visible := v.Visible.Sorted()[0]
	r, err := v.Query([]string{visible})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema().Len() != 1 {
		t.Error("query projection wrong")
	}
}

func TestSecureViewWithPublicModulePrivatizes(t *testing.T) {
	// Private identity feeding a public complement; hiding the shared
	// attribute must privatize (rename) the public module.
	mPriv := module.Identity("m", []string{"i0"}, []string{"u"})
	mPub := module.Complement("mpp", []string{"u"}, []string{"v"}).AsPublic()
	w := workflow.MustNew("ex8", mPriv, mPub)
	s := NewStore(w)
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Costs{"i0": 5, "u": 1, "v": 5}
	v, err := s.SecureView(context.Background(), 2, costs, map[string]float64{"mpp": 1}, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyStandalone(); err != nil {
		t.Fatal(err)
	}
	if !v.Hidden.Has("u") {
		t.Fatalf("expected u hidden, got %v", v.Hidden)
	}
	if !v.Privatized.Has("mpp") {
		t.Fatal("public module adjacent to hidden attribute not privatized")
	}
	if name := v.ModuleName("mpp"); !strings.HasPrefix(name, "hidden-module-") {
		t.Errorf("privatized module exposed as %q", name)
	}
	if v.ModuleName("m") != "m" {
		t.Error("private module renamed unexpectedly")
	}
}

func TestExportJSON(t *testing.T) {
	s := NewStore(workflow.Fig1())
	if err := s.RecordAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	costs := privacy.Uniform(s.Workflow().Schema().Names()...)
	v, err := s.SecureView(context.Background(), 2, costs, nil, "exact")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := v.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if doc["workflow"] != "fig1" {
		t.Errorf("workflow name = %v", doc["workflow"])
	}
	// No hidden attribute may appear in the serialized executions.
	for _, h := range v.HiddenSorted() {
		if strings.Contains(string(raw), `"`+h+`"`) {
			t.Errorf("hidden attribute %q leaked into export", h)
		}
	}
}
