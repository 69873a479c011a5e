package gen

import (
	"strings"
	"testing"

	"secureview/internal/spec"
)

// perModuleDoc asks for Γ=4 on its one module, more than the document-wide
// Γ=2. An instance carries a single Γ, so resolving it would silently
// weaken the module's requirement: hiding x1 alone makes m 2-private at
// cost 1, while 4-privacy needs x1 and x2 hidden at cost 2.
const perModuleDoc = `{"name": "per-module", "gamma": 2, "gammaPerModule": {"m": 4},
  "costs": {"x1": 1, "x2": 1, "y": 5},
  "modules": [{"name": "m", "visibility": "private",
    "inputs": [{"name": "x1", "domain": 2}, {"name": "x2", "domain": 2}],
    "outputs": [{"name": "y", "domain": 4}], "kind": "table",
    "table": [{"in": [0, 0], "out": [0]}, {"in": [0, 1], "out": [1]},
              {"in": [1, 0], "out": [2]}, {"in": [1, 1], "out": [3]}]}]}`

// TestResolveRejectsGammaPerModule: spec and CSV refs refuse documents with
// per-module requirements rather than resolving them at the document Γ.
func TestResolveRejectsGammaPerModule(t *testing.T) {
	doc, err := spec.Parse([]byte(perModuleDoc))
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []InstanceRef{
		{Spec: doc},
		{CSV: &CSVRef{Spec: doc, Data: "x1,x2,y\n0,1,1\n"}},
	} {
		if _, err := Resolve(ref); err == nil || !strings.Contains(err.Error(), "gammaPerModule") {
			t.Errorf("Resolve(%+v): got %v, want a gammaPerModule rejection", ref, err)
		}
	}
	// Without the per-module map the same document resolves at Γ=2.
	doc.GammaPerModule = nil
	rv, err := Resolve(InstanceRef{Spec: doc})
	if err != nil || rv.Instance.Gamma != 2 {
		t.Fatalf("plain document: %v", err)
	}
}
