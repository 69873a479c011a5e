// Package secureview is a Go reproduction of "Provenance Views for Module
// Privacy" (Davidson, Khanna, Milo, Panigrahi, Roy — PODS 2011): a library
// for publishing provenance views of scientific workflows that keep the
// input/output behaviour of proprietary modules Γ-private, together with
// the paper's optimization algorithms, lower-bound constructions, and an
// experiment harness reproducing every theorem, example and figure.
//
// Layout:
//
//	internal/relation    finite relations, projections, joins, FDs
//	internal/module      modules as finite functions I → O
//	internal/workflow    DAG wiring, execution, provenance relations
//	internal/provenance  execution store and privacy-preserving views,
//	                     derived with secureview.Derive and solved by any
//	                     registry solver through solve.Solve (a cancelled
//	                     solve's feasible incumbent still yields a view)
//	internal/privacy     Γ-standalone-privacy (section 3, appendix A)
//	internal/oracle      compiled integer-coded safety oracle: relations
//	                     lowered once to uint64 row codes, each Lemma 4 test
//	                     a few array/bitset ops — compile once per search,
//	                     share the read-only result across the worker pool
//	internal/search      bitset subset-search engine: MinCost is a pure
//	                     (cost, lex) scan over a radix-sorted candidate
//	                     list up to 22 attributes and a cost-bounded scan
//	                     above, both testing each surviving candidate with
//	                     one oracle call; Proposition 1 pruning in the
//	                     level sweeps; worker pool; no warm-start state
//	internal/worlds      possible-world semantics, FLIP, sharded parallel
//	                     enumeration with bitset OUT sets
//	internal/secureview  the Secure-View optimization (sections 4–5);
//	                     context-cancellable branch-and-bound (one per
//	                     variant), greedy and LP solvers with the typed
//	                     ErrNodeBudget up-front budget refusal, and the
//	                     brute-force cardinality reference; Compiled
//	                     lowers a problem to bitmasks over an attribute
//	                     universe (a subset test per set option, two
//	                     popcounts per cardinality module), the engine
//	                     solver's per-candidate feasibility test and, in
//	                     multi-word form, the search space of the exact set
//	                     branch and bound
//	internal/solve       unified solver layer: Solver registry (exact,
//	                     engine, greedy, lp, approx-setcover,
//	                     approx-labelcover, portfolio; engine compiles the
//	                     problem once per solve and its workers share the
//	                     compiled masks read-only) with declared
//	                     Capabilities, uniform Options and bound-certified
//	                     Results, a fingerprint-keyed Session cache of
//	                     derived problems (length-prefixed collision-proof
//	                     hashing, size-accounted LRU eviction, delta
//	                     derivation re-costing cached problems on cost-only
//	                     re-derives)
//	                     shared across goroutines, SolveBatch
//	                     worker-pool front-end with per-job deadlines; every
//	                     solver observes ctx within one pruning epoch; the
//	                     portfolio meta-solver runs a fixed plan, the exact
//	                     tier under a probe budget and then the certified
//	                     tier, on the caller's goroutine;
//	                     Session.Snapshot / RestoreSession serialize the hot
//	                     state through internal/wire for cold-start-free
//	                     process restarts
//	internal/wire        versioned, checksummed binary envelope (magic +
//	                     version + length + CRC-32C) under every snapshot;
//	                     Open rejects corrupt, truncated or version-bumped
//	                     payloads so restore degrades instead of misreading
//	internal/ring        consistent-hash ring (static membership, virtual
//	                     nodes) assigning request fingerprints to replicas
//	                     in shard mode
//	internal/load        mixed-workload generator for the serving path:
//	                     solves, batches and cost-only edit chains with
//	                     deterministic per-worker streams, reporting
//	                     p50/p99/max latency, throughput and error/429
//	                     counts
//	internal/server      HTTP/JSON front-end over the solve registry:
//	                     bounded admission (429 on overload), per-request
//	                     deadlines mapped to solve.Options.Timeout (206
//	                     partial incumbents on expiry), batch endpoint over
//	                     SolveBatch, spec- and generated-(class, seed)
//	                     request forms, byte-capped shared Session, a
//	                     structure fingerprint on every response (a
//	                     request's "base" is accepted and ignored);
//	                     session snapshot/restore (periodic + on-SIGTERM,
//	                     restore-on-boot gated by /readyz) and a sharded
//	                     serving mode proxying each solve to the replica
//	                     owning its structural fingerprint on the ring
//	internal/lp          two-phase simplex (substrate)
//	internal/sat         CNF + DPLL (substrate for Theorem 2)
//	internal/combopt     set/vertex/label cover: weighted instances,
//	                     context-cancellable budgeted greedy/exact solvers
//	                     with the typed ErrBudget sentinel
//	internal/reductions  the hardness constructions as generators, plus the
//	                     forward reductions ToSetCover/ToLabelCover with
//	                     solution pull-back and LP/charging lower bounds —
//	                     the engine of the certified approximation tier
//	internal/gen         deterministic seed-driven scenario generator:
//	                     chain/tree/layered topologies, function kinds,
//	                     cost models, abstract instances (including the
//	                     mega-* classes with hundreds of modules that only
//	                     the approximation tier can solve); byte-identical
//	                     reproduction per (Config, seed); the canonical
//	                     InstanceRef pipeline resolving class+seed, spec
//	                     documents, provenance-CSV logs (partial-log
//	                     semantics) and corpus IDs through one function
//	internal/gen/corpus  committed hard-instance corpus (fingerprint-pinned
//	                     configs the adversarial miner found to defeat the
//	                     engine's pruning, replayed by CI) plus the
//	                     deterministic hill-climb miner itself
//	internal/gen/diff    cross-solver differential harness: exact ≡
//	                     engine (≡ brute force on small cardinality
//	                     universes), greedy/LP feasibility + approximation
//	                     bounds, compiled ≡ interpreted oracle, compiled
//	                     problem ≡ Problem.Feasible on every mask of small
//	                     universes and compiled-oracle engine ≡
//	                     reference-oracle engine bit for bit, exact set
//	                     optimum ≡ engine (or brute-force) optimum bit for
//	                     bit, exhaustive possible-world verification on
//	                     small instances
//	internal/exp         experiment registry E1–E23
//
// Entry points: cmd/secureview (solve instances), cmd/secureview-serve
// (serve the solver layer over HTTP, optionally snapshotted and sharded),
// cmd/secureview-load (drive a mixed workload against a running server),
// cmd/secureview-mine (mine hard instances into the committed corpus),
// cmd/secureview-bench (reproduce the experiment tables), cmd/worlds
// (world counting), and the runnable programs under examples/. See
// DESIGN.md and EXPERIMENTS.md.
package secureview
