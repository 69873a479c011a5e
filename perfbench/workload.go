package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"secureview/internal/exp"
	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/module"
	"secureview/internal/relation"
	"secureview/internal/server"
	"secureview/internal/spec"
	"secureview/internal/workflow"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"exact-search", "cached-mix", "edit-chain", "cold-derive"}

const (
	// editChains is how many edit chains edit-chain interleaves, each on
	// its own corpus entry: one chain's cost depends on where its walk
	// goes, and four average that out.
	editChains = 4
	// digestLen is how many requests of each stream the digest covers, so
	// the digest does not depend on the window length.
	digestLen = 256
)

// job is one solve inside a request: the instance as the library resolves
// it for the reference answer, and the solver the request names.
type job struct {
	// key identifies the instance including its costs (reference cache key).
	key string
	// structKey identifies the instance without its costs: requests that
	// share it but not key are Session delta derivations.
	structKey string
	ref       gen.InstanceRef
	solver    string
}

// request is one HTTP request of a stream.
type request struct {
	path string // "/v1/solve" or "/v1/batch"
	// body is the JSON request. A chained request continues edit chain
	// chain: its body lacks "base", which is spliced in at send time from
	// the chain's previous response (for its first request, the response
	// to warm-up request chain).
	body    []byte
	chained bool
	chain   int
	jobs    []job
}

// stream is a workload's deterministic request sequence. Requests are
// generated in order and kept, so one goroutine at a time may extend it.
type stream struct {
	next func(i int) (request, error)
	reqs []request
	// round is the period of the stream's request mix: a client stops only
	// after a whole number of rounds, so every run weighs the mix's
	// requests alike however long a round takes.
	round int
}

func (s *stream) at(i int) (request, error) {
	for len(s.reqs) <= i {
		r, err := s.next(len(s.reqs))
		if err != nil {
			return request{}, err
		}
		s.reqs = append(s.reqs, r)
	}
	return s.reqs[i], nil
}

// workload is a generated traffic mix: the warm-up requests sent during
// setup, and the stream the measured window sends. Every workload is a
// closed loop with one client, which sends its next request when the
// previous one returns. One client leaves the second core of a two-core
// host to the server's garbage collector and the client itself; on a
// virtual machine whose host steals time from busy cores, that kept the
// run-to-run spread of latency and throughput at a third to a half of what
// two clients showed.
type workload struct {
	name   string
	warmup []request
	stream *stream
	// pregen is how many requests per second of window the stream
	// generates before the window, 1.3 to 2 times what the client
	// completes at seed, so the client does not spend the window's cores
	// generating requests. A stream that only cycles through prepared
	// requests needs none.
	pregen float64
}

// newWorkload builds the named workload's request stream from seed and
// generates the requests a window of windowSeconds is expected to send.
func newWorkload(name string, seed int64, windowSeconds float64) (*workload, error) {
	var wl *workload
	var err error
	switch name {
	case "exact-search":
		wl, err = exactSearch(seed)
	case "cached-mix":
		wl, err = cachedMix(seed)
	case "edit-chain":
		wl, err = editChain(seed)
	case "cold-derive":
		wl = coldDerive(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	n := int(math.Ceil(wl.pregen * windowSeconds))
	if _, err := wl.stream.at(max(n, digestLen) - 1); err != nil {
		return nil, err
	}
	return wl, nil
}

// digest hashes the warm-up and the first digestLen requests of the
// stream; equal seeds give equal digests.
func (w *workload) digest() (string, error) {
	h := sha256.New()
	write := func(r request) {
		fmt.Fprintf(h, "%s %d\n", r.path, len(r.body))
		h.Write(r.body)
	}
	for _, r := range w.warmup {
		write(r)
	}
	for i := 0; i < digestLen; i++ {
		r, err := w.stream.at(i)
		if err != nil {
			return "", err
		}
		write(r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

var workersOne = &server.OptionsSpec{Workers: 1}

// docJob keys an instance by the hash of its spec document, costs
// included, and its structure by the same document without costs or name:
// what the Session's cache and its structure index tell apart. A non-empty
// structKey is taken as given.
func docJob(ref gen.InstanceRef, doc *spec.Document, structKey, solver string) (job, error) {
	var err error
	if structKey == "" {
		bare := *doc
		bare.Name, bare.Costs, bare.PrivatizeCosts = "", nil, nil
		if structKey, err = hashJSON(&bare); err != nil {
			return job{}, err
		}
	}
	key, err := hashJSON(doc)
	return job{key: key, structKey: structKey, ref: ref, solver: solver}, err
}

// refJob keys a class or corpus instance by its spec-document form.
func refJob(ref gen.InstanceRef, solver string) (job, error) {
	rv, err := gen.Resolve(ref)
	if err != nil {
		return job{}, err
	}
	doc, err := instanceDoc(rv.Instance)
	if err != nil {
		return job{}, err
	}
	return docJob(ref, doc, "", solver)
}

func hashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

func corpusJob(id, solver string) (job, error) {
	return refJob(gen.InstanceRef{Corpus: id}, solver)
}

func classJob(class string, seed int64, solver string) (job, error) {
	return refJob(gen.InstanceRef{Class: class, Seed: seed}, solver)
}

func specJob(doc *spec.Document, structKey, solver string) (job, error) {
	return docJob(gen.InstanceRef{Spec: doc}, doc, structKey, solver)
}

// wireRequest is the request a job sends on its own.
func wireRequest(j job, opts *server.OptionsSpec) server.SolveRequest {
	req := server.SolveRequest{Spec: j.ref.Spec, Corpus: j.ref.Corpus, Solver: j.solver, Options: opts}
	if j.ref.Class != "" {
		req.Generated = &server.GeneratedRef{Class: j.ref.Class, Seed: j.ref.Seed}
	}
	return req
}

func solveRequest(j job, opts *server.OptionsSpec) (request, error) {
	body, err := json.Marshal(wireRequest(j, opts))
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/solve", body: body, jobs: []job{j}}, nil
}

func batchRequest(jobs []job) (request, error) {
	var b server.BatchRequest
	for _, j := range jobs {
		b.Jobs = append(b.Jobs, wireRequest(j, nil))
	}
	body, err := json.Marshal(b)
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/batch", body: body, jobs: jobs}, nil
}

// instanceDoc is the spec-document form of a generated instance, costs and
// Γ included.
func instanceDoc(it *gen.Instance) (*spec.Document, error) {
	doc, err := spec.FromWorkflow(it.W)
	if err != nil {
		return nil, err
	}
	doc.Gamma = it.Gamma
	doc.Costs = it.Costs
	doc.PrivatizeCosts = it.PrivatizeCosts
	return doc, nil
}

// exactSearch: every request runs the engine solver single-threaded on a
// hard instance whose derivation the warm-up cached, round-robin in an
// order the seed permutes.
func exactSearch(seed int64) (*workload, error) {
	var jobs []job
	for _, e := range corpus.Entries() {
		if e.K >= 13 {
			j, err := corpusJob(e.ID, "engine")
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	w, costs, gamma := exp.SearchBenchWorkflow(12)
	doc, err := instanceDoc(&gen.Instance{W: w, Costs: costs, Gamma: gamma})
	if err != nil {
		return nil, err
	}
	sb, err := specJob(doc, "", "engine")
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sb)

	perm := rand.New(rand.NewSource(seed)).Perm(len(jobs))
	reqs := make([]request, len(jobs))
	for i, p := range perm {
		if reqs[i], err = solveRequest(jobs[p], workersOne); err != nil {
			return nil, err
		}
	}
	return &workload{name: "exact-search", warmup: reqs, stream: &stream{
		round: len(reqs),
		next:  func(i int) (request, error) { return reqs[i%len(reqs)], nil },
	}}, nil
}

// cachedMix: cheap solvers on instances whose derivations the warm-up
// cached: every workflow class at seeds 0-2 under greedy, exact, lp and
// portfolio, plus every corpus entry under greedy. Three requests in four
// are single solves, the rest batches of 2-4 jobs.
func cachedMix(seed int64) (*workload, error) {
	var pool []job
	add := func(j job, err error) error {
		pool = append(pool, j)
		return err
	}
	for _, c := range gen.Classes() {
		for s := int64(0); s < 3; s++ {
			for _, solver := range []string{"greedy", "exact", "lp", "portfolio"} {
				if err := add(classJob(c.Name, s, solver)); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, e := range corpus.Entries() {
		if err := add(corpusJob(e.ID, "greedy")); err != nil {
			return nil, err
		}
	}

	wl := &workload{name: "cached-mix", pregen: 2000}
	seen := make(map[string]bool)
	for _, j := range pool {
		if seen[j.key] {
			continue
		}
		seen[j.key] = true
		r, err := solveRequest(j, nil)
		if err != nil {
			return nil, err
		}
		wl.warmup = append(wl.warmup, r)
	}

	// The stream cycles through the pool in a seeded order; every fourth
	// request is a batch of the next 2, 3 or 4 jobs in turn, so the mix of
	// solvers and request shapes is the same whatever the seed. A block of
	// 12 requests takes 18 jobs; a round is the fewest blocks that take
	// whole passes over the pool.
	const blockRequests, blockJobs = 12, 18
	order := rand.New(rand.NewSource(seed)).Perm(len(pool))
	next := 0
	take := func() job {
		j := pool[order[next%len(order)]]
		next++
		return j
	}
	wl.stream = &stream{round: blockRequests * len(pool) / gcd(len(pool), blockJobs), next: func(i int) (request, error) {
		if i%4 != 3 {
			return solveRequest(take(), nil)
		}
		jobs := make([]job, 2+(i/4)%3)
		for k := range jobs {
			jobs[k] = take()
		}
		return batchRequest(jobs)
	}}
	return wl, nil
}

// editChain: the stream takes turns between editChains chains; chain k
// edits the costs of the k-th k=14 corpus entry, one attribute per step:
// the step sets that attribute's cost to its original cost times 1.25^l
// for a level l in [-3, 3] drawn afresh, so the chain forgets its past
// within a few dozen steps and a run averages over many cost regions. No
// cost vector repeats within a chain, so every request after the chain's
// first is a Session delta derivation and a warm resume.
func editChain(seed int64) (*workload, error) {
	var entries []corpus.Entry
	for _, e := range corpus.Entries() {
		if e.K == 14 && len(entries) < editChains {
			entries = append(entries, e)
		}
	}
	if len(entries) < editChains {
		return nil, fmt.Errorf("edit-chain: corpus has %d k=14 entries, want %d", len(entries), editChains)
	}
	wl := &workload{name: "edit-chain", pregen: 600}
	root := rand.New(rand.NewSource(seed))
	steps := make([]func() (request, error), len(entries))
	for k, e := range entries {
		it, err := e.Instance()
		if err != nil {
			return nil, err
		}
		doc, err := instanceDoc(it)
		if err != nil {
			return nil, err
		}
		walk := newCostWalk(it.Costs, rand.New(rand.NewSource(root.Int63())))
		structKey := ""
		edit := func(costs map[string]float64) (request, error) {
			d := *doc
			d.Costs = costs
			j, err := specJob(&d, structKey, "engine")
			if err != nil {
				return request{}, err
			}
			structKey = j.structKey // every edit keeps the structure
			return solveRequest(j, workersOne)
		}
		first, err := edit(walk.costs())
		if err != nil {
			return nil, err
		}
		wl.warmup = append(wl.warmup, first)
		steps[k] = func() (request, error) {
			costs, err := walk.step()
			if err != nil {
				return request{}, err
			}
			r, err := edit(costs)
			r.chained, r.chain = true, k
			return r, err
		}
	}
	wl.stream = &stream{round: len(steps), next: func(i int) (request, error) {
		return steps[i%len(steps)]()
	}}
	return wl, nil
}

// costWalk is a seeded walk over per-attribute cost levels that never
// revisits a cost vector.
type costWalk struct {
	names  []string
	base   map[string]float64
	levels []int
	seen   map[string]bool
	rng    *rand.Rand
}

const maxLevel = 3

func newCostWalk(base map[string]float64, rng *rand.Rand) *costWalk {
	names := make([]string, 0, len(base))
	for a := range base {
		names = append(names, a)
	}
	sort.Strings(names)
	w := &costWalk{names: names, base: base, levels: make([]int, len(names)),
		seen: make(map[string]bool), rng: rng}
	w.seen[fmt.Sprint(w.levels)] = true
	return w
}

func (w *costWalk) costs() map[string]float64 {
	out := make(map[string]float64, len(w.names))
	for i, a := range w.names {
		out[a] = w.base[a] * math.Pow(1.25, float64(w.levels[i]))
	}
	return out
}

// step moves one random attribute to a new random level, redrawing the
// move if it lands on a visited cost vector.
func (w *costWalk) step() (map[string]float64, error) {
	for try := 0; try < 1000; try++ {
		i := w.rng.Intn(len(w.names))
		l := w.rng.Intn(2*maxLevel+1) - maxLevel
		if l == w.levels[i] {
			continue
		}
		old := w.levels[i]
		w.levels[i] = l
		if key := fmt.Sprint(w.levels); !w.seen[key] {
			w.seen[key] = true
			return w.costs(), nil
		}
		w.levels[i] = old
	}
	return nil, fmt.Errorf("edit-chain: no unvisited cost vector in 1000 draws")
}

// coldDerive: every request is a workflow never sent before, one private
// random-table module over 8 boolean inputs and 4 outputs, solved with
// greedy. One arity keeps the latency distribution unimodal; at 12
// attributes the derivation is the largest layer.
func coldDerive(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	return &workload{name: "cold-derive", pregen: 300, stream: &stream{round: 1, next: func(int) (request, error) {
		doc, err := randomModuleDoc(rng, 8, 4)
		if err != nil {
			return request{}, err
		}
		j, err := specJob(doc, "", "greedy")
		if err != nil {
			return request{}, err
		}
		return solveRequest(j, nil)
	}}}
}

// randomModuleDoc draws a single private random-table module with integer
// costs in [1,5] and Γ = 2^(nOut-1), which hiding every output meets.
func randomModuleDoc(rng *rand.Rand, nIn, nOut int) (*spec.Document, error) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	in, out := names("x", nIn), names("y", nOut)
	w, err := workflow.New("cold", module.Random("m", relation.Bools(in...), relation.Bools(out...), rng))
	if err != nil {
		return nil, err
	}
	costs := make(map[string]float64, nIn+nOut)
	for _, a := range append(in, out...) {
		costs[a] = float64(1 + rng.Intn(5))
	}
	return instanceDoc(&gen.Instance{W: w, Costs: costs, Gamma: 1 << (nOut - 1)})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
