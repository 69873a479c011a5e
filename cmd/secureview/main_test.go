package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secureview/internal/gen"
	"secureview/internal/spec"
	"secureview/internal/workflow"
)

// writeSpec serializes a workflow (with Γ and costs) into a -wf document.
func writeSpec(t *testing.T, w *workflow.Workflow, gamma uint64, costs map[string]float64) string {
	t.Helper()
	doc, err := spec.FromWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	doc.Gamma, doc.Costs = gamma, costs
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkflowModeRejectsGammaPerModule: a per-module Γ cannot be honoured
// by the one-Γ instance -wf solves, so the document is refused instead of
// silently solved at the document-wide Γ. (The module here is 4-distinct
// over its inputs; solving it at Γ=2 hides only x1, which leaves it
// 2-private, not the 4-private the document asks for.)
func TestWorkflowModeRejectsGammaPerModule(t *testing.T) {
	var out bytes.Buffer
	_, err := runWorkflowMode(context.Background(), &out, filepath.Join("testdata", "gamma-per-module.json"), "exact")
	if err == nil || !strings.Contains(err.Error(), "gammaPerModule") {
		t.Fatalf("got err %v, want a gammaPerModule rejection", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected document still printed a view:\n%s", out.String())
	}
}

// TestWorkflowModeSolvesThroughRegistry: -wf takes any registry solver that
// handles the set variant, and the registry's capability checks apply.
func TestWorkflowModeSolvesThroughRegistry(t *testing.T) {
	path := writeSpec(t, workflow.Fig1(), 2, nil)
	for _, solver := range []string{"exact", "engine", "greedy", "lp", "approx-setcover", "portfolio"} {
		var out bytes.Buffer
		partial, err := runWorkflowMode(context.Background(), &out, path, solver)
		if err != nil || partial {
			t.Fatalf("%s: partial=%v err=%v", solver, partial, err)
		}
		if !strings.Contains(out.String(), "published view:") {
			t.Fatalf("%s: no view printed:\n%s", solver, out.String())
		}
		if solver == "exact" && !strings.Contains(out.String(), "hide:        [a3 a4]\n") {
			t.Fatalf("exact: want the Γ=2 optimum [a3 a4]:\n%s", out.String())
		}
	}
	for _, solver := range []string{"bb", "quantum"} {
		if _, err := runWorkflowMode(context.Background(), &bytes.Buffer{}, path, solver); err == nil {
			t.Errorf("%s accepted for a set-variant workflow solve", solver)
		}
	}
}

// TestWorkflowModeDeadline: an expired deadline stops the exact solve; its
// first incumbent is printed as a partial view, while greedy itself stops
// before it has a feasible union and fails.
func TestWorkflowModeDeadline(t *testing.T) {
	// The exact branch and bound checks its context as soon as it holds a
	// first solution, so it reports the deadline however few nodes it needs.
	it, err := gen.New(gen.Config{Topology: gen.Chain, Modules: 8, FanIn: 2, FanOut: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := writeSpec(t, it.W, it.Gamma, it.Costs)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	var out bytes.Buffer
	partial, err := runWorkflowMode(ctx, &out, path, "exact")
	if err != nil || !partial {
		t.Fatalf("exact: partial=%v err=%v", partial, err)
	}
	for _, want := range []string{"TIMED OUT", "status:      partial (deadline exceeded)", "published view:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("exact: output lacks %q:\n%s", want, out.String())
		}
	}

	if _, err := runWorkflowMode(ctx, &bytes.Buffer{}, path, "greedy"); err == nil ||
		!strings.Contains(err.Error(), "no feasible incumbent") {
		t.Fatalf("greedy: got %v, want a no-incumbent timeout", err)
	}
}
