package spec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"secureview/internal/module"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

const demoDoc = `{
  "name": "demo",
  "gamma": 2,
  "costs": {"a1": 1, "a2": 2, "a3": 1},
  "modules": [
    {
      "name": "flip", "visibility": "private",
      "inputs":  [{"name": "a1", "domain": 2}],
      "outputs": [{"name": "a2", "domain": 2}],
      "kind": "table",
      "table": [{"in": [0], "out": [1]}, {"in": [1], "out": [0]}]
    },
    {
      "name": "fmt", "visibility": "public",
      "inputs":  [{"name": "a2", "domain": 2}],
      "outputs": [{"name": "a3", "domain": 2}],
      "kind": "identity"
    }
  ]
}`

func TestParseAndBuild(t *testing.T) {
	doc, err := Parse([]byte(demoDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Gamma != 2 || doc.Name != "demo" {
		t.Fatalf("header wrong: %+v", doc)
	}
	w, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Modules()) != 2 {
		t.Fatalf("modules = %d", len(w.Modules()))
	}
	if w.Module("fmt").Visibility() != module.Public {
		t.Error("fmt not public")
	}
	row, err := w.Execute(relation.Tuple{0})
	if err != nil {
		t.Fatal(err)
	}
	// flip(0)=1, identity(1)=1.
	s := w.Schema()
	if row[s.IndexOf("a2")] != 1 || row[s.IndexOf("a3")] != 1 {
		t.Errorf("execution = %v", row)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"bad json", `{"name":`},
		{"no modules", `{"name": "x", "modules": []}`},
		{"unknown kind", `{"name":"x","modules":[{"name":"m","kind":"magic",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}]}]}`},
		{"unknown visibility", `{"name":"x","modules":[{"name":"m","kind":"identity","visibility":"secret",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}]}]}`},
		{"partial table", `{"name":"x","modules":[{"name":"m","kind":"table",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}],
			"table":[{"in":[0],"out":[0]}]}]}`},
		{"fd violation", `{"name":"x","modules":[{"name":"m","kind":"table",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}],
			"table":[{"in":[0],"out":[0]},{"in":[0],"out":[1]},{"in":[1],"out":[0]}]}]}`},
		{"row arity", `{"name":"x","modules":[{"name":"m","kind":"table",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}],
			"table":[{"in":[0,0],"out":[0]}]}]}`},
		{"constant arity", `{"name":"x","modules":[{"name":"m","kind":"constant","value":[0,1],
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}]}]}`},
		{"constant domain", `{"name":"x","modules":[{"name":"m","kind":"constant","value":[5],
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}]}]}`},
		{"gate multi-output", `{"name":"x","modules":[{"name":"m","kind":"xor",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2},{"name":"c","domain":2}]}]}`},
		{"non-boolean gate", `{"name":"x","modules":[{"name":"m","kind":"xor",
			"inputs":[{"name":"a","domain":3}],"outputs":[{"name":"b","domain":2}]}]}`},
		{"identity arity", `{"name":"x","modules":[{"name":"m","kind":"identity",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2},{"name":"c","domain":2}]}]}`},
		// The library constructors panic on a repeated name, so Build must
		// refuse it first.
		{"input is output", `{"name":"x","modules":[{"name":"m","kind":"identity",
			"inputs":[{"name":"a","domain":2}],"outputs":[{"name":"a","domain":2}]}]}`},
		{"repeated input", `{"name":"x","modules":[{"name":"m","kind":"and",
			"inputs":[{"name":"a","domain":2},{"name":"a","domain":2}],"outputs":[{"name":"b","domain":2}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := Parse([]byte(tc.doc))
			if err != nil {
				return // parse-level failure is fine
			}
			if _, err := doc.Build(); err == nil {
				t.Errorf("document accepted: %s", tc.doc)
			}
		})
	}
}

func TestBuiltinKinds(t *testing.T) {
	doc := `{"name":"gates","modules":[
		{"name":"g1","kind":"and","inputs":[{"name":"x","domain":2},{"name":"y","domain":2}],
		 "outputs":[{"name":"u","domain":2}]},
		{"name":"g2","kind":"or","inputs":[{"name":"u","domain":2},{"name":"x","domain":2}],
		 "outputs":[{"name":"v","domain":2}]},
		{"name":"g3","kind":"not","inputs":[{"name":"v","domain":2}],
		 "outputs":[{"name":"w","domain":2}]},
		{"name":"g4","kind":"majority","inputs":[{"name":"u","domain":2},{"name":"v","domain":2},{"name":"w","domain":2}],
		 "outputs":[{"name":"z","domain":2}]},
		{"name":"g5","kind":"constant","value":[1],"inputs":[{"name":"z","domain":2}],
		 "outputs":[{"name":"c","domain":2}]},
		{"name":"g6","kind":"complement","inputs":[{"name":"c","domain":2}],
		 "outputs":[{"name":"d","domain":2}]}
	]}`
	d, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	row, err := w.Execute(relation.Tuple{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Schema()
	// u=1, v=1, w=0, z=maj(1,1,0)=1, c=1, d=0.
	want := map[string]relation.Value{"u": 1, "v": 1, "w": 0, "z": 1, "c": 1, "d": 0}
	for n, v := range want {
		if row[s.IndexOf(n)] != v {
			t.Errorf("%s = %d, want %d", n, row[s.IndexOf(n)], v)
		}
	}
}

func TestRoundTripFig1(t *testing.T) {
	w := workflow.Fig1()
	doc, err := FromWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"table"`) {
		t.Error("serialization did not materialize tables")
	}
	doc2, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := doc2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !w2.MustRelation().Equal(w.MustRelation()) {
		t.Fatal("round trip changed the provenance relation")
	}
}

// Property: FromWorkflow ∘ Build is the identity on provenance relations
// for random two-module workflows.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := module.Random("m1", relation.Bools("x1", "x2"), relation.Bools("u1"), rng)
		m2 := module.Random("m2", relation.Bools("u1", "x1"), relation.Bools("v1", "v2"), rng)
		w, err := workflow.New("rt", m1, m2)
		if err != nil {
			return false
		}
		doc, err := FromWorkflow(w)
		if err != nil {
			return false
		}
		raw, err := doc.Marshal()
		if err != nil {
			return false
		}
		doc2, err := Parse(raw)
		if err != nil {
			return false
		}
		w2, err := doc2.Build()
		if err != nil {
			return false
		}
		return w2.MustRelation().Equal(w.MustRelation())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
