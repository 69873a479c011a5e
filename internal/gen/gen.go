// Package gen provides deterministic, seed-driven generators for Secure-View
// scenario instances: workflows over chain / tree / layered-DAG topologies
// with configurable fan-in/out, data sharing, domain sizes and public–private
// module mix; module functionalities (random truth tables, injective,
// constant-heavy); cost models; and ready-made secureview.Problem /
// worlds.HidingProblem instances.
//
// Every generator is a pure function of (Config, seed): the same seed
// reproduces a byte-identical instance (see CanonicalBytes) across runs and
// GOMAXPROCS settings, because generation is single-goroutine and never
// iterates Go maps while drawing random choices. The canonical topology
// classes used by the E22/E23 scenario experiments, the differential
// harness (internal/gen/diff), the fuzz seeds and the scenario benchmarks
// all come from Classes and ProblemClasses, so every consumer exercises the
// same slice of the instance space.
//
// Beyond (Config, seed) generation, InstanceRef names an instance from ANY
// source — generated class+seed, spec document, provenance CSV, or corpus
// ID — and Resolve turns any of them into a solvable instance. The server,
// the bench sweeps and cmd/secureview all resolve through it, so every
// layer accepts every instance source uniformly.
package gen

import (
	"fmt"
	"math/rand"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/workflow"
	"secureview/internal/worlds"
)

// Topology selects the workflow wiring shape.
type Topology int

const (
	// Chain wires module i to consume the outputs of module i-1 (module 0
	// consumes the initial inputs). Data sharing is 1.
	Chain Topology = iota
	// Tree attaches each module to one earlier producer chosen at random,
	// consuming up to FanIn of that producer's outputs; with Share=1 the
	// result is an out-forest.
	Tree
	// Layered builds Layers×Width modules; each module draws FanIn inputs
	// from the previous layer's outputs, sharing attributes up to Share
	// consumers. This is the averaged-experiment shape (layered DAGs of
	// random boolean modules), with fan-out, domain and sharing knobs.
	Layered
)

// String returns "chain", "tree" or "layered".
func (t Topology) String() string {
	switch t {
	case Tree:
		return "tree"
	case Layered:
		return "layered"
	default:
		return "chain"
	}
}

// FuncKind selects how module functionalities are drawn.
type FuncKind int

const (
	// RandomTable draws a uniformly random truth table (module.Random).
	RandomTable FuncKind = iota
	// Injective draws a random injection of the input domain into the
	// output domain (a permutation when the domains have equal size),
	// falling back to RandomTable when the output domain is too small.
	// Injective modules maximize what the visible view reveals, so they
	// are the hardest instances for a fixed Γ.
	Injective
	// ConstantHeavy maps every input to one of at most two output tuples,
	// biased 3:1 to the first. Small ranges collapse OUT sets, mimicking
	// aggregating/thresholding modules.
	ConstantHeavy
	// MixedFuncs draws one of the three kinds per module.
	MixedFuncs
)

// String names the kind.
func (k FuncKind) String() string {
	switch k {
	case Injective:
		return "injective"
	case ConstantHeavy:
		return "constant-heavy"
	case MixedFuncs:
		return "mixed"
	default:
		return "random-table"
	}
}

// CostModel selects how hiding costs are assigned.
type CostModel int

const (
	// UniformRandomCosts draws each attribute cost uniformly from
	// [1, MaxCost] in schema order.
	UniformRandomCosts CostModel = iota
	// UnitCosts assigns cost 1 everywhere (minimize the NUMBER of hidden
	// attributes).
	UnitCosts
	// InputHeavyCosts charges 4 for attributes consumed by some module and
	// 1 for the rest — the paper's natural utility model (hiding data that
	// feeds downstream modules hurts more), and the regime the E20/E21
	// benchmarks use.
	InputHeavyCosts
)

// String names the model.
func (c CostModel) String() string {
	switch c {
	case UnitCosts:
		return "unit"
	case InputHeavyCosts:
		return "input-heavy"
	default:
		return "uniform-random"
	}
}

// Config parameterizes workflow-instance generation. The zero value is
// usable: it means a 4-module boolean chain with fan-in/out 2, all-private
// random-table modules, uniform random costs in [1,5] and Γ=2.
type Config struct {
	Topology Topology
	// Modules is the module count for Chain and Tree (default 4).
	Modules int
	// Layers and Width shape the Layered topology (defaults 2×2).
	Layers, Width int
	// FanIn / FanOut are the per-module input/output attribute counts
	// (defaults 2 / 2). Chain modules consume min(FanIn, FanOut) of the
	// predecessor's outputs.
	FanIn, FanOut int
	// Domain is the size of every attribute domain (default 2).
	Domain int
	// Share caps how many modules may consume one attribute (default 1;
	// only Tree and Layered can exceed their structural sharing with it).
	Share int
	// PublicFrac marks each module public with this probability; at least
	// one module always stays private.
	PublicFrac float64
	// Funcs selects the module-functionality kind (default RandomTable).
	Funcs FuncKind
	// Costs selects the cost model (default UniformRandomCosts) and
	// MaxCost its scale (default 5).
	Costs   CostModel
	MaxCost float64
	// Gamma is the privacy requirement attached to the instance
	// (default 2).
	Gamma uint64
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Modules <= 0 {
		c.Modules = 4
	}
	if c.Layers <= 0 {
		c.Layers = 2
	}
	if c.Width <= 0 {
		c.Width = 2
	}
	if c.FanIn <= 0 {
		c.FanIn = 2
	}
	if c.FanOut <= 0 {
		c.FanOut = 2
	}
	if c.Domain < 2 {
		c.Domain = 2
	}
	if c.Share <= 0 {
		c.Share = 1
	}
	if c.MaxCost <= 1 {
		c.MaxCost = 5
	}
	if c.Gamma == 0 {
		c.Gamma = 2
	}
	return c
}

// validate rejects configurations whose modules could not be materialized
// as truth tables (the generators, the spec serializer and the canonical
// fingerprint all enumerate module domains).
func (c Config) validate() error {
	space := 1
	for i := 0; i < c.FanIn; i++ {
		space *= c.Domain
		if space > 1<<12 {
			return fmt.Errorf("gen: input domain %d^%d too large (max 4096)", c.Domain, c.FanIn)
		}
	}
	if c.PublicFrac < 0 || c.PublicFrac > 1 {
		return fmt.Errorf("gen: PublicFrac %g outside [0,1]", c.PublicFrac)
	}
	return nil
}

// Instance is one generated workflow scenario: the workflow, its hiding
// costs, privatization costs for its public modules, and the privacy
// requirement Γ.
type Instance struct {
	Cfg  Config
	Seed int64
	W    *workflow.Workflow
	// Costs assigns hiding penalties to every attribute of W.
	Costs privacy.Costs
	// PrivatizeCosts assigns c(m) to every public module of W.
	PrivatizeCosts map[string]float64
	Gamma          uint64
	// Recorded, when non-nil, restricts derivation to this provenance log
	// (partial-log semantics): requirement lists come from each module's
	// projection of the recorded executions instead of its full input
	// domain. Set by CSV-imported InstanceRefs; nil for generated sources.
	Recorded *relation.Relation
}

// New generates the instance for (cfg, seed). Identical arguments always
// produce byte-identical instances (CanonicalBytes).
func New(cfg Config, seed int64) (*Instance, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	var mods []*module.Module
	switch cfg.Topology {
	case Tree:
		mods = b.tree()
	case Layered:
		mods = b.layered()
	default:
		mods = b.chain()
	}
	mods = b.applyVisibility(mods)
	w, err := workflow.New(fmt.Sprintf("%s-%d", cfg.Topology, seed), mods...)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	costs, priv := b.assignCosts(w)
	return &Instance{
		Cfg:            cfg,
		Seed:           seed,
		W:              w,
		Costs:          costs,
		PrivatizeCosts: priv,
		Gamma:          cfg.Gamma,
	}, nil
}

// MustNew is New panicking on error; for statically known configurations.
func MustNew(cfg Config, seed int64) *Instance {
	it, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return it
}

// builder carries the generation state. All random draws go through rng in
// a fixed order; no map is ever ranged over, keeping generation a pure
// function of the seed.
type builder struct {
	cfg Config
	rng *rand.Rand

	nextInitial int // fresh initial-input counter (x0, x1, ...)

	// produced lists every produced attribute in creation order together
	// with its remaining consumer capacity; byModule groups the indices of
	// each module's outputs for the Tree topology.
	produced []producedAttr
	byModule [][]int
}

type producedAttr struct {
	attr      relation.Attribute
	consumers int
}

func (b *builder) attr(name string) relation.Attribute {
	return relation.Attribute{Name: name, Domain: b.cfg.Domain}
}

// fresh mints n new initial-input attributes.
func (b *builder) fresh(n int) []relation.Attribute {
	out := make([]relation.Attribute, n)
	for i := range out {
		out[i] = b.attr(fmt.Sprintf("x%d", b.nextInitial))
		b.nextInitial++
	}
	return out
}

// outs mints the output attributes of module mi and registers them as
// available producers.
func (b *builder) outs(mi, n int) []relation.Attribute {
	out := make([]relation.Attribute, n)
	idx := make([]int, n)
	for i := range out {
		out[i] = b.attr(fmt.Sprintf("d%d_%d", mi, i))
		idx[i] = len(b.produced)
		b.produced = append(b.produced, producedAttr{attr: out[i]})
	}
	b.byModule = append(b.byModule, idx)
	return out
}

// chain wires module i to the outputs of module i-1.
func (b *builder) chain() []*module.Module {
	cfg := b.cfg
	mods := make([]*module.Module, 0, cfg.Modules)
	prev := b.fresh(cfg.FanIn)
	for i := 0; i < cfg.Modules; i++ {
		in := prev
		if len(in) > cfg.FanIn {
			in = in[:cfg.FanIn]
		}
		out := b.outs(i, cfg.FanOut)
		mods = append(mods, b.makeModule(fmt.Sprintf("m%d", i), in, out))
		prev = out
	}
	return mods
}

// tree attaches each module to one earlier producer with spare capacity.
func (b *builder) tree() []*module.Module {
	cfg := b.cfg
	mods := make([]*module.Module, 0, cfg.Modules)
	for i := 0; i < cfg.Modules; i++ {
		var in []relation.Attribute
		if i > 0 {
			in = b.pickFromParent()
		}
		if len(in) == 0 {
			in = b.fresh(cfg.FanIn)
		}
		out := b.outs(i, cfg.FanOut)
		mods = append(mods, b.makeModule(fmt.Sprintf("m%d", i), in, out))
	}
	return mods
}

// pickFromParent chooses a random earlier module that still has outputs
// with consumer capacity and consumes up to FanIn of them.
func (b *builder) pickFromParent() []relation.Attribute {
	var candidates []int // module indices with >=1 available output
	for mi, idxs := range b.byModule {
		for _, pi := range idxs {
			if b.produced[pi].consumers < b.cfg.Share {
				candidates = append(candidates, mi)
				break
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	parent := candidates[b.rng.Intn(len(candidates))]
	var in []relation.Attribute
	for _, pi := range b.byModule[parent] {
		if len(in) == b.cfg.FanIn {
			break
		}
		if b.produced[pi].consumers < b.cfg.Share {
			b.produced[pi].consumers++
			in = append(in, b.produced[pi].attr)
		}
	}
	return in
}

// layered builds Layers×Width modules, each drawing FanIn inputs from the
// previous layer (sharing up to Share consumers per attribute).
func (b *builder) layered() []*module.Module {
	cfg := b.cfg
	mods := make([]*module.Module, 0, cfg.Layers*cfg.Width)
	prev := make([]int, 0, cfg.Width) // indices into b.produced, or -1 rows for initial
	initial := b.fresh(cfg.Width)
	initialUse := make([]int, len(initial))
	mi := 0
	for l := 0; l < cfg.Layers; l++ {
		var next []int
		for wi := 0; wi < cfg.Width; wi++ {
			var in []relation.Attribute
			if l == 0 {
				// Draw from the shared initial inputs, capacity Share.
				var eligible []int
				for ai := range initial {
					if initialUse[ai] < cfg.Share {
						eligible = append(eligible, ai)
					}
				}
				for _, ai := range b.sample(eligible, cfg.FanIn) {
					initialUse[ai]++
					in = append(in, initial[ai])
				}
			} else {
				var eligible []int
				for _, pi := range prev {
					if b.produced[pi].consumers < cfg.Share {
						eligible = append(eligible, pi)
					}
				}
				for _, pi := range b.sample(eligible, cfg.FanIn) {
					b.produced[pi].consumers++
					in = append(in, b.produced[pi].attr)
				}
			}
			if len(in) == 0 {
				in = b.fresh(1)
			}
			out := b.outs(mi, cfg.FanOut)
			next = append(next, b.byModule[len(b.byModule)-1]...)
			mods = append(mods, b.makeModule(fmt.Sprintf("m%d_%d", l, wi), in, out))
			mi++
		}
		prev = next
	}
	return mods
}

// sample draws up to n distinct elements of xs in random order
// (deterministic partial Fisher–Yates over a copy).
func (b *builder) sample(xs []int, n int) []int {
	if len(xs) == 0 {
		return nil
	}
	cp := append([]int(nil), xs...)
	if n > len(cp) {
		n = len(cp)
	}
	for i := 0; i < n; i++ {
		j := i + b.rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:n]
}

// applyVisibility marks each module public with probability PublicFrac,
// keeping at least one module private.
func (b *builder) applyVisibility(mods []*module.Module) []*module.Module {
	anyPrivate := false
	for i, m := range mods {
		if b.rng.Float64() < b.cfg.PublicFrac {
			mods[i] = m.AsPublic()
		} else {
			anyPrivate = true
		}
	}
	if !anyPrivate {
		mods[len(mods)-1] = mods[len(mods)-1].AsPrivate()
	}
	return mods
}

// assignCosts draws the hiding and privatization costs for the built
// workflow under the configured cost model, in deterministic schema /
// topological order.
func (b *builder) assignCosts(w *workflow.Workflow) (privacy.Costs, map[string]float64) {
	cfg := b.cfg
	costs := make(privacy.Costs, w.Schema().Len())
	for _, a := range w.Schema().Names() {
		switch cfg.Costs {
		case UnitCosts:
			costs[a] = 1
		case InputHeavyCosts:
			if len(w.Consumers(a)) > 0 {
				costs[a] = 4
			} else {
				costs[a] = 1
			}
		default:
			costs[a] = 1 + b.rng.Float64()*(cfg.MaxCost-1)
		}
	}
	priv := make(map[string]float64)
	for _, m := range w.PublicModules() {
		switch cfg.Costs {
		case UnitCosts:
			priv[m.Name()] = 1
		case InputHeavyCosts:
			priv[m.Name()] = 4
		default:
			priv[m.Name()] = 1 + b.rng.Float64()*(cfg.MaxCost-1)
		}
	}
	return priv2costs(costs), priv
}

// priv2costs exists to keep the return type explicit.
func priv2costs(c privacy.Costs) privacy.Costs { return c }

// Derive assembles the Secure-View instance of the workflow in variant v
// (Theorems 4/8) under the instance's costs and Γ, from its recorded log
// when it has one.
func (it *Instance) Derive(v secureview.Variant) (*secureview.Problem, error) {
	return secureview.Derive(it.W, v, secureview.DeriveOptions{
		Gamma:          it.Gamma,
		Costs:          it.Costs,
		PrivatizeCosts: it.PrivatizeCosts,
		Recorded:       it.Recorded,
	})
}

// HidingProblem grounds the instance in possible-world semantics: the
// candidates are every non-initial attribute, and each safety test is a full
// worlds enumeration. It errors when the initial-input domain is too large
// to materialize the provenance relation.
func (it *Instance) HidingProblem(budget uint64) (worlds.HidingProblem, error) {
	r, err := it.W.Relation(1 << 12)
	if err != nil {
		return worlds.HidingProblem{}, err
	}
	initial := relation.NewNameSet(it.W.InitialInputNames()...)
	var cands []string
	for _, a := range it.W.Schema().Names() {
		if !initial.Has(a) {
			cands = append(cands, a)
		}
	}
	return worlds.HidingProblem{
		W:          it.W,
		R:          r,
		Candidates: cands,
		Costs:      it.Costs,
		Gamma:      it.Gamma,
		Budget:     budget,
	}, nil
}

// Class is a named canonical configuration — one topology class of the
// scenario suite.
type Class struct {
	Name string
	Cfg  Config
}

// Classes returns the canonical workflow topology classes. E22/E23, the
// differential property tests, the e2e scenario test, the fuzz seeds and
// the -benchjson scenario rows all iterate this list, so adding a class
// here grows every harness at once.
func Classes() []Class {
	return []Class{
		{"chain", Config{Topology: Chain, Modules: 4, FanIn: 2, FanOut: 2}},
		{"chain-injective", Config{Topology: Chain, Modules: 3, FanIn: 2, FanOut: 2, Funcs: Injective}},
		{"chain-domain3", Config{Topology: Chain, Modules: 3, FanIn: 1, FanOut: 1, Domain: 3, Gamma: 3}},
		{"tree", Config{Topology: Tree, Modules: 4, FanIn: 2, FanOut: 2}},
		{"tree-constant", Config{Topology: Tree, Modules: 4, FanIn: 2, FanOut: 1, Funcs: ConstantHeavy, Costs: UnitCosts}},
		{"layered", Config{Topology: Layered, Layers: 2, Width: 2, FanIn: 2, FanOut: 1, Share: 2, Funcs: MixedFuncs}},
		{"layered-public", Config{Topology: Layered, Layers: 2, Width: 2, FanIn: 2, FanOut: 1, Share: 2, PublicFrac: 0.34, Costs: InputHeavyCosts}},
	}
}
