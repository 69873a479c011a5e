package gen

// InstanceRef is the canonical instance pipeline: one reference type naming
// a Secure-View instance from ANY source, resolved by one function
// (Resolve) that every consumer — the differential harness, the server
// request forms, the bench sweeps, cmd/secureview — shares. Sources:
// generated class+seed, inline spec document, provenance CSV import, and
// committed corpus ID.

import (
	"fmt"
	"strings"

	"secureview/internal/privacy"
	"secureview/internal/provenance"
	"secureview/internal/secureview"
	"secureview/internal/spec"
)

// InstanceRef names an instance from exactly one source. The JSON form is
// the wire shape the server's request types embed.
type InstanceRef struct {
	// Class + Seed name a generated instance: a workflow topology class
	// (Classes) or an abstract problem class (ProblemClasses /
	// MegaProblemClasses).
	Class string `json:"class,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Spec is an inline workflow document.
	Spec *spec.Document `json:"spec,omitempty"`
	// CSV imports a recorded provenance log: the workflow comes from
	// CSV.Spec, the executions from CSV.Data. Requirement lists then derive
	// from the recorded projection (partial-log semantics — the view is
	// only guaranteed for that log).
	CSV *CSVRef `json:"csv,omitempty"`
	// Corpus is a committed hard-instance corpus entry ID
	// (internal/gen/corpus); any unambiguous ID prefix resolves.
	Corpus string `json:"corpus,omitempty"`
	// Gamma, when > 0, overrides the source's privacy requirement.
	// Workflow-backed sources only; abstract problem classes carry their
	// requirement lists directly.
	Gamma uint64 `json:"gamma,omitempty"`
}

// CSVRef pairs a workflow document with a CSV log of its executions.
type CSVRef struct {
	// Spec describes the workflow the log belongs to.
	Spec *spec.Document `json:"spec"`
	// Data is the CSV text, one full provenance tuple per row over the
	// workflow schema (the provenance.ExportCSV shape). Rows are replayed
	// against the workflow and rejected if inconsistent with its
	// functionality.
	Data string `json:"data"`
}

// Resolved is the outcome of resolving an InstanceRef: exactly one of
// Instance (workflow-backed sources: generated classes, spec documents, CSV
// imports, corpus entries) and Problem (abstract problem classes) is set.
type Resolved struct {
	// Name identifies the source for display: "chain/7", "spec:demo",
	// "csv:demo", "corpus:2f1a03c9e4b1", "problem:shared/3".
	Name     string
	Instance *Instance
	Problem  *secureview.Problem
}

// Derive returns the set-constraint problem of the resolved instance,
// whatever its source.
func (r *Resolved) Derive() (*secureview.Problem, error) {
	if r.Problem != nil {
		return r.Problem, nil
	}
	return r.Instance.Derive(secureview.Set)
}

// corpusResolver is the hook internal/gen/corpus registers at init. It
// lives here (not as a gen → corpus import) so corpus can embed gen.Config
// documents without an import cycle; consumers that want corpus IDs to
// resolve import internal/gen/corpus for its side effect.
var corpusResolver func(id string) (*Instance, error)

// RegisterCorpusResolver installs the corpus-ID resolver. Called from
// internal/gen/corpus's init; last registration wins.
func RegisterCorpusResolver(f func(id string) (*Instance, error)) {
	corpusResolver = f
}

// sourceCount counts the reference's populated sources.
func (ref InstanceRef) sourceCount() int {
	n := 0
	if ref.Class != "" {
		n++
	}
	if ref.Spec != nil {
		n++
	}
	if ref.CSV != nil {
		n++
	}
	if ref.Corpus != "" {
		n++
	}
	return n
}

// Resolve materializes the reference. Exactly one source must be set; the
// error message always lists the known class names so callers can surface
// it to users directly.
func Resolve(ref InstanceRef) (*Resolved, error) {
	if n := ref.sourceCount(); n != 1 {
		return nil, fmt.Errorf("gen: instance ref must set exactly one of class, spec, csv, corpus (got %d)", n)
	}
	switch {
	case ref.Spec != nil:
		return resolveSpec(ref)
	case ref.CSV != nil:
		return resolveCSV(ref)
	case ref.Corpus != "":
		return resolveCorpus(ref)
	default:
		return resolveClass(ref)
	}
}

func resolveClass(ref InstanceRef) (*Resolved, error) {
	for _, c := range Classes() {
		if c.Name != ref.Class {
			continue
		}
		cfg := c.Cfg
		if ref.Gamma > 0 {
			cfg.Gamma = ref.Gamma
		}
		it, err := New(cfg, ref.Seed)
		if err != nil {
			return nil, err
		}
		return &Resolved{Name: fmt.Sprintf("%s/%d", c.Name, ref.Seed), Instance: it}, nil
	}
	for _, c := range append(ProblemClasses(), MegaProblemClasses()...) {
		if c.Name == ref.Class {
			// Abstract instances carry their requirement lists directly; Γ
			// does not apply.
			return &Resolved{
				Name:    fmt.Sprintf("problem:%s/%d", c.Name, ref.Seed),
				Problem: Problem(c.Cfg, ref.Seed),
			}, nil
		}
	}
	return nil, fmt.Errorf("gen: unknown class %q (workflow classes: %v; problem classes: %v)",
		ref.Class, ClassNames(), ProblemClassNames())
}

func resolveSpec(ref InstanceRef) (*Resolved, error) {
	it, err := specInstance(ref.Spec, ref.Gamma)
	if err != nil {
		return nil, err
	}
	return &Resolved{Name: "spec:" + ref.Spec.Name, Instance: it}, nil
}

// specInstance builds the workflow instance of a document: uniform costs
// when the document carries none, Γ from (override, document, default 2).
func specInstance(doc *spec.Document, gammaOverride uint64) (*Instance, error) {
	if len(doc.GammaPerModule) > 0 {
		return nil, fmt.Errorf("gen: gammaPerModule documents are not resolvable (one Γ per instance)")
	}
	w, err := doc.Build()
	if err != nil {
		return nil, err
	}
	gamma := gammaOverride
	if gamma == 0 {
		gamma = doc.Gamma
	}
	if gamma == 0 {
		gamma = 2
	}
	costs := privacy.Costs(doc.Costs)
	if len(costs) == 0 {
		costs = privacy.Uniform(w.Schema().Names()...)
	}
	return &Instance{
		W:              w,
		Costs:          costs,
		PrivatizeCosts: doc.PrivatizeCosts,
		Gamma:          gamma,
	}, nil
}

func resolveCSV(ref InstanceRef) (*Resolved, error) {
	c := ref.CSV
	if c.Spec == nil {
		return nil, fmt.Errorf("gen: csv ref needs a spec document describing the workflow")
	}
	it, err := specInstance(c.Spec, ref.Gamma)
	if err != nil {
		return nil, err
	}
	// Import through the provenance store so every row is replayed against
	// the workflow functionality — a log that is not provenance of this
	// workflow is rejected, not silently analyzed.
	store := provenance.NewStore(it.W)
	if err := store.ImportCSV(strings.NewReader(c.Data)); err != nil {
		return nil, fmt.Errorf("gen: importing csv log: %w", err)
	}
	if store.Size() == 0 {
		return nil, fmt.Errorf("gen: csv log holds no executions")
	}
	it.Recorded = store.Relation()
	return &Resolved{Name: "csv:" + c.Spec.Name, Instance: it}, nil
}

func resolveCorpus(ref InstanceRef) (*Resolved, error) {
	if corpusResolver == nil {
		return nil, fmt.Errorf("gen: corpus IDs are not resolvable here (import secureview/internal/gen/corpus)")
	}
	it, err := corpusResolver(ref.Corpus)
	if err != nil {
		return nil, err
	}
	if ref.Gamma > 0 {
		it.Gamma = ref.Gamma
	}
	return &Resolved{Name: "corpus:" + ref.Corpus, Instance: it}, nil
}

// ClassNames lists the workflow topology class names.
func ClassNames() []string {
	var out []string
	for _, c := range Classes() {
		out = append(out, c.Name)
	}
	return out
}

// ProblemClassNames lists the abstract class names (regular then mega).
func ProblemClassNames() []string {
	var out []string
	for _, c := range append(ProblemClasses(), MegaProblemClasses()...) {
		out = append(out, c.Name)
	}
	return out
}
