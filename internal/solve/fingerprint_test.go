package solve

import (
	"testing"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/workflow"
)

func identityWorkflow(t *testing.T, ins, outs []string) *workflow.Workflow {
	t.Helper()
	w, err := workflow.New("fp", module.Identity("m", ins, outs))
	if err != nil {
		t.Fatalf("workflow: %v", err)
	}
	return w
}

// TestWorkflowKeyAdversarialNames is the regression test for the delimiter
// collisions: before length-prefixing, workflowKey serialized cost entries
// as "c:<name>=<value>;" and privatize entries as "p:<name>=<value>;", so a
// name containing those delimiter bytes could replay another request's
// byte stream and silently share its cache entry — serving a derived
// problem for the WRONG cost assignment. Each pair below collided under
// the old encoding; with length prefixes every string's bytes are bounded
// by its recorded length, so the keys must differ.
func TestWorkflowKeyAdversarialNames(t *testing.T) {
	w := identityWorkflow(t, []string{"a", "b"}, []string{"y", "z"})

	t.Run("cost name forging a second cost entry", func(t *testing.T) {
		// Old encoding: both serialize the cost section as "c:a=1;c:b=1;".
		k1 := workflowKey(w, secureview.Set, 2, privacy.Costs{"a=1;c:b": 1}, nil)
		k2 := workflowKey(w, secureview.Set, 2, privacy.Costs{"a": 1, "b": 1}, nil)
		if k1 == k2 {
			t.Fatal("cost maps {a=1;c:b: 1} and {a: 1, b: 1} share a fingerprint")
		}
	})

	t.Run("cost name forging a privatize entry across the section boundary", func(t *testing.T) {
		// Old encoding: both serialize as "c:a=1;p:m=1;" — a hiding cost
		// masquerading as a privatization cost.
		k1 := workflowKey(w, secureview.Set, 2, privacy.Costs{"a=1;p:m": 1}, nil)
		k2 := workflowKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, map[string]float64{"m": 1})
		if k1 == k2 {
			t.Fatal("a cost-name injection reaches into the privatize section")
		}
	})

	t.Run("attribute names shifting the input list", func(t *testing.T) {
		// "a;i" as one input vs "a" and "i" as two: the old per-name
		// encoding made both input sections read "i:a;i:...", relying on
		// the schema and row sections to disagree. Length prefixes make
		// the input lists themselves injective.
		w1 := identityWorkflow(t, []string{"a;i"}, []string{"z"})
		w2 := identityWorkflow(t, []string{"a", "i"}, []string{"z", "z2"})
		k1 := workflowKey(w1, secureview.Set, 2, privacy.Costs{}, nil)
		k2 := workflowKey(w2, secureview.Set, 2, privacy.Costs{}, nil)
		if k1 == k2 {
			t.Fatal("input lists [a;i] and [a i] share a fingerprint")
		}
	})

	t.Run("attribute name forging a schema entry", func(t *testing.T) {
		// "a=2;d:b" with domain 2 serialized, under the old encoding, to
		// the same schema section as two boolean attributes a and b.
		w1 := identityWorkflow(t, []string{"a=2;d:b"}, []string{"z"})
		w2 := identityWorkflow(t, []string{"a", "b"}, []string{"z", "z2"})
		k1 := workflowKey(w1, secureview.Set, 2, privacy.Costs{}, nil)
		k2 := workflowKey(w2, secureview.Set, 2, privacy.Costs{}, nil)
		if k1 == k2 {
			t.Fatal("schema sections collide through an = injection")
		}
	})

	t.Run("distinct requests still get distinct keys", func(t *testing.T) {
		keys := map[string]string{}
		add := func(label, k string) {
			if prev, dup := keys[k]; dup {
				t.Fatalf("%s collides with %s", label, prev)
			}
			keys[k] = label
		}
		add("set/2", workflowKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, nil))
		add("card/2", workflowKey(w, secureview.Cardinality, 2, privacy.Costs{"a": 1}, nil))
		add("set/3", workflowKey(w, secureview.Set, 3, privacy.Costs{"a": 1}, nil))
		add("set/2/cost2", workflowKey(w, secureview.Set, 2, privacy.Costs{"a": 2}, nil))
		add("set/2/priv", workflowKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, map[string]float64{"m": 1}))
		// Same module and attribute names, different function.
		comp, err := workflow.New("fp", module.Complement("m", []string{"a", "b"}, []string{"y", "z"}))
		if err != nil {
			t.Fatal(err)
		}
		add("set/2/complement", workflowKey(comp, secureview.Set, 2, privacy.Costs{"a": 1}, nil))
	})

	t.Run("key is stable across calls", func(t *testing.T) {
		c := privacy.Costs{"a": 1.5, "b": 2.5}
		p := map[string]float64{"m": 3}
		if workflowKey(w, secureview.Set, 2, c, p) != workflowKey(w, secureview.Set, 2, c, p) {
			t.Fatal("workflowKey is not deterministic")
		}
	})
}
