// Command secureview solves workflow Secure-View instances: given a JSON
// description of modules, requirement lists and costs, it prints the
// minimum-cost (or approximate) set of attributes to hide and public
// modules to privatize so that every private module stays Γ-private.
// Solvers are resolved through the internal/solve registry.
//
// Usage:
//
//	secureview -demo                      # print an example instance
//	secureview -solvers                   # list registered solvers + capabilities
//	secureview -in instance.json          # solve (exact)
//	secureview -in instance.json -solver lp -variant set
//	secureview -in instance.json -solver greedy -variant cardinality
//	secureview -in instance.json -variant cardinality -timeout 2s
//	secureview -gen mega-shared -solver portfolio   # solve a generated class
//	secureview -wf workflow.json -solver greedy     # derive, solve and publish a view
//
// -wf takes a workflow spec document (internal/spec), records every
// execution, derives the requirement lists (Theorems 4/8) and publishes the
// secure view. It accepts every registry solver that handles the set
// variant, and -timeout bounds its solve as it does for -in and -gen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"secureview/internal/gen"
	_ "secureview/internal/gen/corpus" // register the corpus-ID resolver
	"secureview/internal/privacy"
	"secureview/internal/provenance"
	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/spec"
)

// instance is the JSON wire format.
type instance struct {
	Modules []moduleSpec       `json:"modules"`
	Costs   map[string]float64 `json:"costs"`
}

type moduleSpec struct {
	Name          string        `json:"name"`
	Inputs        []string      `json:"inputs"`
	Outputs       []string      `json:"outputs"`
	Public        bool          `json:"public,omitempty"`
	PrivatizeCost float64       `json:"privatizeCost,omitempty"`
	CardList      [][2]int      `json:"cardList,omitempty"`
	SetList       [][2][]string `json:"setList,omitempty"`
}

func toProblem(in instance) *secureview.Problem {
	p := &secureview.Problem{Costs: privacy.Costs(in.Costs)}
	for _, m := range in.Modules {
		spec := secureview.ModuleSpec{
			Name: m.Name, Inputs: m.Inputs, Outputs: m.Outputs,
			Public: m.Public, PrivatizeCost: m.PrivatizeCost,
		}
		for _, c := range m.CardList {
			spec.CardList = append(spec.CardList, secureview.CardReq{Alpha: c[0], Beta: c[1]})
		}
		for _, s := range m.SetList {
			spec.SetList = append(spec.SetList, secureview.SetReq{In: s[0], Out: s[1]})
		}
		p.Modules = append(p.Modules, spec)
	}
	return p
}

func demo() instance {
	return instance{
		Modules: []moduleSpec{
			{
				Name: "align", Inputs: []string{"reads"}, Outputs: []string{"bam"},
				SetList:  [][2][]string{{{"reads"}, nil}, {nil, {"bam"}}},
				CardList: [][2]int{{1, 0}, {0, 1}},
			},
			{
				Name: "call", Inputs: []string{"bam"}, Outputs: []string{"variants"},
				SetList:  [][2][]string{{{"bam"}, nil}, {nil, {"variants"}}},
				CardList: [][2]int{{1, 0}, {0, 1}},
			},
			{
				Name: "format", Inputs: []string{"variants"}, Outputs: []string{"report"},
				Public: true, PrivatizeCost: 2,
			},
		},
		Costs: map[string]float64{"reads": 3, "bam": 1, "variants": 2, "report": 4},
	}
}

func main() {
	var (
		inPath      = flag.String("in", "", "instance JSON file (- for stdin)")
		wfPath      = flag.String("wf", "", "workflow spec JSON file (see internal/spec); derives and solves")
		genClass    = flag.String("gen", "", "solve a generated class instead of -in: a problem class (incl. mega-*), a workflow topology class, or a corpus entry ID (optionally corpus:<id>)")
		solver      = flag.String("solver", "exact", fmt.Sprintf("one of %v (internal/solve registry); -wf solves the set variant", solve.Names()))
		variant     = flag.String("variant", "set", "set | cardinality")
		showDemo    = flag.Bool("demo", false, "print an example instance and exit")
		showSolvers = flag.Bool("solvers", false, "list registered solvers with their declared capabilities and exit")
		seed        = flag.Int64("seed", 1, "randomized-rounding seed (cardinality lp)")
		parallel    = flag.Int("parallel", 0, "subset-search worker-pool size (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "solve deadline (0 = none); on expiry the best incumbent, if any, is printed as a partial result and the exit status is 3")
	)
	flag.Parse()
	search.SetDefaultParallelism(*parallel)

	if *showDemo {
		raw, _ := json.MarshalIndent(demo(), "", "  ")
		fmt.Println(string(raw))
		return
	}
	if *showSolvers {
		printSolvers()
		return
	}
	if *wfPath != "" {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		partial, err := runWorkflowMode(ctx, os.Stdout, *wfPath, *solver)
		if err != nil {
			fatal(err)
		}
		if partial {
			os.Exit(3)
		}
		return
	}
	if *inPath == "" && *genClass == "" {
		fmt.Fprintln(os.Stderr, "secureview: -in, -gen or -wf required (or -demo, -solvers)")
		os.Exit(2)
	}
	var v secureview.Variant
	switch *variant {
	case "set":
		v = secureview.Set
	case "cardinality":
		v = secureview.Cardinality
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	var p *secureview.Problem
	if *genClass != "" {
		var err error
		if p, err = generatedProblem(*genClass, *seed, v); err != nil {
			fatal(err)
		}
	} else {
		var raw []byte
		var err error
		if *inPath == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*inPath)
		}
		if err != nil {
			fatal(err)
		}
		var in instance
		if err := json.Unmarshal(raw, &in); err != nil {
			fatal(fmt.Errorf("parsing instance: %w", err))
		}
		p = toProblem(in)
	}

	res, err := solve.Solve(context.Background(), *solver, p, solve.Options{
		Variant:    v,
		NodeBudget: 1 << 24,
		Workers:    *parallel,
		Seed:       *seed,
		Trials:     9,
		Timeout:    *timeout,
	})
	partial := false
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && res.Partial:
		// Deadline hit, but the solver carried a feasible incumbent out.
		fmt.Printf("TIMED OUT after %v — printing the best incumbent found so far (not proven optimal)\n", *timeout)
		partial = true
	case errors.Is(err, context.DeadlineExceeded):
		fatal(fmt.Errorf("timed out after %v with no feasible incumbent", *timeout))
	default:
		fatal(err)
	}
	sol := res.Solution
	if !p.Feasible(sol, v) {
		fatal(fmt.Errorf("internal error: solution infeasible"))
	}

	fmt.Printf("variant:      %s\n", v)
	fmt.Printf("solver:       %s\n", *solver)
	fmt.Printf("γ (sharing):  %d\n", p.DataSharing())
	fmt.Printf("ℓmax:         %d\n", p.LMax(v))
	fmt.Printf("hide:         %s\n", sol.Hidden)
	fmt.Printf("privatize:    %s\n", sol.Privatized)
	fmt.Printf("total cost:   %.4g\n", res.Cost)
	switch {
	case partial:
		fmt.Printf("status:       partial (deadline exceeded)\n")
	case res.Optimal:
		fmt.Printf("status:       optimal (%s)\n", res.Bound.Theorem)
	case res.Bound.Theorem != "":
		fmt.Printf("status:       approximate, factor %.4g (%s)\n", res.Bound.Factor, res.Bound.Theorem)
	}
	if res.Bound.LP > 0 {
		fmt.Printf("LP bound:     %.4g (cost/LP = %.3f)\n", res.Bound.LP, res.Cost/res.Bound.LP)
	}
	if e, err := secureview.Explain(p, sol, v); err == nil {
		fmt.Printf("explanation:\n")
		for _, line := range e.Lines {
			fmt.Printf("  %s\n", line)
		}
	}
	if partial {
		os.Exit(3) // distinguishable from success and from hard failure
	}
}

// runWorkflowMode loads a concrete workflow spec, records all executions,
// derives requirement lists from standalone analysis (Theorem 4/8) and
// publishes a secure view, printing it to out. The spec resolves through
// gen.Resolve, so Γ and cost defaults match the server's, and
// gammaPerModule documents are rejected as they are there. ctx bounds the
// solve (derivation runs to completion); when its deadline passes, a
// feasible incumbent is printed and reported as partial.
func runWorkflowMode(ctx context.Context, out io.Writer, path, solverName string) (partial bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	doc, err := spec.Parse(raw)
	if err != nil {
		return false, err
	}
	rv, err := gen.Resolve(gen.InstanceRef{Spec: doc})
	if err != nil {
		return false, err
	}
	it := rv.Instance
	store := provenance.NewStore(it.W)
	if err := store.RecordAll(1 << 20); err != nil {
		return false, err
	}
	view, err := store.SecureView(ctx, it.Gamma, it.Costs, it.PrivatizeCosts, solverName)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && view != nil:
		fmt.Fprintln(out, "TIMED OUT — printing the best incumbent found so far (not proven optimal)")
		partial = true
	case errors.Is(err, context.DeadlineExceeded):
		return false, fmt.Errorf("timed out with no feasible incumbent: %w", err)
	default:
		return false, err
	}
	if err := view.VerifyStandalone(); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "workflow:    %s (%d modules, %d executions)\n", it.W.Name(), len(it.W.Modules()), store.Size())
	fmt.Fprintf(out, "Γ:           %d\n", view.Gamma)
	fmt.Fprintf(out, "hide:        %v\n", view.HiddenSorted())
	fmt.Fprintf(out, "privatize:   %v\n", view.Privatized.Sorted())
	fmt.Fprintf(out, "cost:        %.4g\n", view.Cost)
	if partial {
		fmt.Fprintf(out, "status:      partial (deadline exceeded)\n")
	}
	fmt.Fprintf(out, "published view:\n%v", view.Relation())
	return partial, nil
}

// printSolvers renders the registry's declared capability matrix, the CLI
// face of GET /v1/solvers.
func printSolvers() {
	for _, info := range solve.Solvers() {
		c := info.Capabilities
		var variants []string
		if c.Cardinality {
			variants = append(variants, "cardinality")
		}
		if c.Set {
			variants = append(variants, "set")
		}
		kind := "heuristic"
		switch {
		case c.Exact:
			kind = "exact"
		case c.Certified:
			kind = "certified"
		}
		fmt.Printf("%-18s %-10s variants=%s", info.Name, kind, strings.Join(variants, ","))
		if c.AllPrivateOnly {
			fmt.Printf(" all-private-only")
		}
		if c.MaxUniverse > 0 {
			fmt.Printf(" max-universe=%d", c.MaxUniverse)
		}
		if c.Factor != "" {
			fmt.Printf(" factor=%q", c.Factor)
		}
		fmt.Println()
	}
}

// generatedProblem resolves -gen through the canonical gen.InstanceRef
// pipeline: abstract problem classes (including mega-*), workflow topology
// classes (derived at the requested variant), and committed-corpus entries
// — either "corpus:<id>" or a bare ID / unambiguous ID prefix.
func generatedProblem(name string, seed int64, v secureview.Variant) (*secureview.Problem, error) {
	ref := gen.InstanceRef{Class: name, Seed: seed}
	if id, ok := strings.CutPrefix(name, "corpus:"); ok {
		ref = gen.InstanceRef{Corpus: id}
	}
	rv, err := gen.Resolve(ref)
	if err != nil && ref.Class != "" {
		if cv, cerr := gen.Resolve(gen.InstanceRef{Corpus: name}); cerr == nil {
			rv, err = cv, nil
		}
	}
	if err != nil {
		return nil, err
	}
	if rv.Problem != nil {
		return rv.Problem, nil
	}
	return rv.Instance.Derive(v)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "secureview: %v\n", err)
	os.Exit(1)
}
