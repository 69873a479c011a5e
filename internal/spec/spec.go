// Package spec defines a JSON interchange format for workflows, so that
// concrete pipelines (module interfaces plus functionality, given as truth
// tables or built-in function kinds) can be loaded by the command-line
// tools, analyzed for Γ-privacy and published as secure views.
//
// A document looks like:
//
//	{
//	  "name": "demo",
//	  "gamma": 2,
//	  "costs": {"a1": 1, "a2": 2},
//	  "privatizeCosts": {"fmt": 3},
//	  "modules": [
//	    {
//	      "name": "m1", "visibility": "private",
//	      "inputs":  [{"name": "a1", "domain": 2}],
//	      "outputs": [{"name": "a2", "domain": 2}],
//	      "kind": "table",
//	      "table": [{"in": [0], "out": [1]}, {"in": [1], "out": [0]}]
//	    },
//	    {
//	      "name": "fmt", "visibility": "public",
//	      "inputs":  [{"name": "a2", "domain": 2}],
//	      "outputs": [{"name": "a3", "domain": 2}],
//	      "kind": "identity"
//	    }
//	  ]
//	}
//
// Supported kinds: "table" (explicit rows; must be total over the input
// domain), and the built-ins "identity", "complement", "and", "or", "xor",
// "nand", "not", "majority", "constant" (with "value": [..]).
package spec

import (
	"encoding/json"
	"fmt"

	"secureview/internal/module"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

// Document is the top-level JSON shape.
type Document struct {
	Name           string             `json:"name"`
	Gamma          uint64             `json:"gamma,omitempty"`
	GammaPerModule map[string]uint64  `json:"gammaPerModule,omitempty"`
	Costs          map[string]float64 `json:"costs,omitempty"`
	PrivatizeCosts map[string]float64 `json:"privatizeCosts,omitempty"`
	Modules        []Module           `json:"modules"`
}

// Module is one module description.
type Module struct {
	Name       string `json:"name"`
	Visibility string `json:"visibility,omitempty"` // "private" (default) or "public"
	Inputs     []Attr `json:"inputs"`
	Outputs    []Attr `json:"outputs"`
	Kind       string `json:"kind"`
	Table      []Row  `json:"table,omitempty"`
	Value      []int  `json:"value,omitempty"` // for kind "constant"
}

// Attr is an attribute with its finite domain size.
type Attr struct {
	Name   string `json:"name"`
	Domain int    `json:"domain"`
}

// Row is one truth-table row.
type Row struct {
	In  []int `json:"in"`
	Out []int `json:"out"`
}

// Parse decodes a document from JSON.
func Parse(raw []byte) (*Document, error) {
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &doc, nil
}

func attrs(as []Attr) []relation.Attribute {
	out := make([]relation.Attribute, len(as))
	for i, a := range as {
		out[i] = relation.Attribute{Name: a.Name, Domain: a.Domain}
	}
	return out
}

func names(as []Attr) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func allBoolean(as []Attr) bool {
	for _, a := range as {
		if a.Domain != 2 {
			return false
		}
	}
	return true
}

// Build constructs the workflow described by the document.
func (d *Document) Build() (*workflow.Workflow, error) {
	if len(d.Modules) == 0 {
		return nil, fmt.Errorf("spec: document has no modules")
	}
	mods := make([]*module.Module, 0, len(d.Modules))
	for _, ms := range d.Modules {
		m, err := buildModule(ms)
		if err != nil {
			return nil, err
		}
		switch ms.Visibility {
		case "", "private":
		case "public":
			m = m.AsPublic()
		default:
			return nil, fmt.Errorf("spec: module %s: unknown visibility %q", ms.Name, ms.Visibility)
		}
		mods = append(mods, m)
	}
	return workflow.New(d.Name, mods...)
}

func buildModule(ms Module) (*module.Module, error) {
	// Validate up front: the module constructors panic on malformed
	// shapes, which must surface as errors for untrusted documents.
	if ms.Name == "" {
		return nil, fmt.Errorf("spec: module with empty name")
	}
	if len(ms.Outputs) == 0 {
		return nil, fmt.Errorf("spec: module %s has no outputs", ms.Name)
	}
	seen := make(map[string]bool, len(ms.Inputs)+len(ms.Outputs))
	for _, a := range append(append([]Attr{}, ms.Inputs...), ms.Outputs...) {
		if a.Name == "" {
			return nil, fmt.Errorf("spec: module %s has an unnamed attribute", ms.Name)
		}
		if a.Domain < 1 {
			return nil, fmt.Errorf("spec: module %s attribute %q has domain %d", ms.Name, a.Name, a.Domain)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("spec: module %s lists attribute %q twice", ms.Name, a.Name)
		}
		seen[a.Name] = true
	}
	in := attrs(ms.Inputs)
	out := attrs(ms.Outputs)
	boolOnly := func() error {
		if !allBoolean(ms.Inputs) || !allBoolean(ms.Outputs) {
			return fmt.Errorf("spec: module %s: kind %q requires boolean attributes", ms.Name, ms.Kind)
		}
		return nil
	}
	switch ms.Kind {
	case "table":
		return buildTable(ms, in, out)
	case "identity":
		if err := boolOnly(); err != nil {
			return nil, err
		}
		if len(in) != len(out) {
			return nil, fmt.Errorf("spec: module %s: identity arity mismatch", ms.Name)
		}
		return module.Identity(ms.Name, names(ms.Inputs), names(ms.Outputs)), nil
	case "complement":
		if err := boolOnly(); err != nil {
			return nil, err
		}
		if len(in) != len(out) {
			return nil, fmt.Errorf("spec: module %s: complement arity mismatch", ms.Name)
		}
		return module.Complement(ms.Name, names(ms.Inputs), names(ms.Outputs)), nil
	case "and", "or", "xor", "nand", "not", "majority":
		if err := boolOnly(); err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("spec: module %s: kind %q needs exactly one output", ms.Name, ms.Kind)
		}
		o := ms.Outputs[0].Name
		ins := names(ms.Inputs)
		switch ms.Kind {
		case "and":
			return module.And(ms.Name, ins, o), nil
		case "or":
			return module.Or(ms.Name, ins, o), nil
		case "xor":
			return module.Xor(ms.Name, ins, o), nil
		case "nand":
			return module.Nand(ms.Name, ins, o), nil
		case "not":
			if len(ins) != 1 {
				return nil, fmt.Errorf("spec: module %s: not needs one input", ms.Name)
			}
			return module.Not(ms.Name, ins[0], o), nil
		case "majority":
			return module.Majority(ms.Name, ins, o), nil
		}
		panic("unreachable")
	case "constant":
		if len(ms.Value) != len(out) {
			return nil, fmt.Errorf("spec: module %s: constant value arity %d, want %d", ms.Name, len(ms.Value), len(out))
		}
		val := make(relation.Tuple, len(ms.Value))
		for i, v := range ms.Value {
			if v < 0 || v >= out[i].Domain {
				return nil, fmt.Errorf("spec: module %s: constant value %d out of domain", ms.Name, v)
			}
			val[i] = v
		}
		return module.Constant(ms.Name, in, out, val), nil
	default:
		return nil, fmt.Errorf("spec: module %s: unknown kind %q", ms.Name, ms.Kind)
	}
}

func buildTable(ms Module, in, out []relation.Attribute) (*module.Module, error) {
	schema, err := relation.NewSchema(append(append([]relation.Attribute{}, in...), out...))
	if err != nil {
		return nil, fmt.Errorf("spec: module %s: %w", ms.Name, err)
	}
	rel := relation.New(schema)
	for ri, row := range ms.Table {
		if len(row.In) != len(in) || len(row.Out) != len(out) {
			return nil, fmt.Errorf("spec: module %s: row %d arity mismatch", ms.Name, ri)
		}
		full := make(relation.Tuple, 0, len(row.In)+len(row.Out))
		for _, v := range row.In {
			full = append(full, v)
		}
		for _, v := range row.Out {
			full = append(full, v)
		}
		if err := rel.Insert(full); err != nil {
			return nil, fmt.Errorf("spec: module %s: row %d: %w", ms.Name, ri, err)
		}
	}
	inSchema, err := relation.NewSchema(in)
	if err != nil {
		return nil, err
	}
	domSize, ok := inSchema.DomainProduct(inSchema.Names())
	if !ok {
		return nil, fmt.Errorf("spec: module %s: input domain too large", ms.Name)
	}
	inputsSeen, err := rel.CountDistinct(inSchema.Names())
	if err != nil {
		return nil, err
	}
	if uint64(inputsSeen) != domSize {
		return nil, fmt.Errorf("spec: module %s: table covers %d of %d inputs (tables must be total)",
			ms.Name, inputsSeen, domSize)
	}
	inNames := make([]string, len(in))
	for i, a := range in {
		inNames[i] = a.Name
	}
	outNames := make([]string, len(out))
	for i, a := range out {
		outNames[i] = a.Name
	}
	return module.FromRelation(ms.Name, rel, inNames, outNames, module.Private)
}

// FromWorkflow serializes a workflow back into a document, materializing
// every module as a total truth table (so the round trip is faithful
// regardless of how modules were originally defined).
func FromWorkflow(w *workflow.Workflow) (*Document, error) {
	doc := &Document{Name: w.Name()}
	for _, m := range w.Modules() {
		ms := Module{
			Name: m.Name(),
			Kind: "table",
		}
		if m.Visibility() == module.Public {
			ms.Visibility = "public"
		} else {
			ms.Visibility = "private"
		}
		for _, a := range m.Inputs() {
			ms.Inputs = append(ms.Inputs, Attr{Name: a.Name, Domain: a.Domain})
		}
		for _, a := range m.Outputs() {
			ms.Outputs = append(ms.Outputs, Attr{Name: a.Name, Domain: a.Domain})
		}
		size, ok := m.InputDomainSize()
		if !ok || size > 1<<16 {
			return nil, fmt.Errorf("spec: module %s: domain too large to serialize", m.Name())
		}
		var tblErr error
		relation.EachTuple(m.InputSchema(), func(x relation.Tuple) bool {
			y, err := m.Eval(x)
			if err != nil {
				tblErr = err
				return false
			}
			row := Row{In: make([]int, len(x)), Out: make([]int, len(y))}
			copy(row.In, x)
			copy(row.Out, y)
			ms.Table = append(ms.Table, row)
			return true
		})
		if tblErr != nil {
			return nil, tblErr
		}
		doc.Modules = append(doc.Modules, ms)
	}
	return doc, nil
}

// Marshal renders the document as indented JSON.
func (d *Document) Marshal() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}
