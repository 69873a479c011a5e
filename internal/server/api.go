package server

import (
	"fmt"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/spec"
)

// SolveRequest is the wire shape of one solve job. Exactly one of Spec,
// Generated, CSV and Corpus names the instance — the four forms of the
// canonical gen.InstanceRef pipeline:
//
//   - Spec is an internal/spec workflow document (modules with truth tables
//     or built-in kinds, costs, Γ); the server derives the Secure-View
//     problem through its shared Session, so repeated requests against the
//     same workflow content pay one derivation.
//   - Generated is a (class, seed) reference into the internal/gen scenario
//     space: workflow topology classes (gen.Classes) derive like specs;
//     abstract instance classes (gen.ProblemClasses and the mega-scale
//     gen.MegaProblemClasses) are generated directly.
//   - CSV pairs a spec document with a recorded provenance log; the
//     requirement lists derive from the recorded projection (partial-log
//     semantics), so only the set variant is servable and the derivation
//     bypasses the shared Session (its cache keys ignore recorded logs).
//   - Corpus names a committed hard-instance corpus entry by ID or
//     unambiguous ID prefix (internal/gen/corpus).
type SolveRequest struct {
	Spec      *spec.Document `json:"spec,omitempty"`
	Generated *GeneratedRef  `json:"generated,omitempty"`
	CSV       *gen.CSVRef    `json:"csv,omitempty"`
	Corpus    string         `json:"corpus,omitempty"`
	// Solver is the internal/solve registry key (see GET /v1/solvers).
	Solver string `json:"solver"`
	// Variant is "set" (default) or "cardinality".
	Variant string `json:"variant,omitempty"`
	// Gamma overrides the document's or class's privacy requirement (0 =
	// keep the instance's own Γ, or 2 when neither specifies one).
	Gamma uint64 `json:"gamma,omitempty"`
	// TimeoutMs bounds this request (0 = the server's default deadline;
	// values above the server's maximum are clamped). The deadline maps to
	// solve.Options.Timeout and propagates through the solver cancellation
	// contract, so expiry surfaces within one pruning epoch.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Base is accepted and ignored (see the package comment).
	Base string `json:"base,omitempty"`
	// Options tunes the solver budgets (zero fields keep solve defaults).
	Options *OptionsSpec `json:"options,omitempty"`
}

// GeneratedRef names a generated scenario: Class is a gen.Classes workflow
// topology class or a gen.ProblemClasses abstract-instance class, Seed the
// deterministic generator seed.
type GeneratedRef struct {
	Class string `json:"class"`
	Seed  int64  `json:"seed"`
}

// OptionsSpec mirrors the tunable subset of solve.Options.
type OptionsSpec struct {
	NodeBudget int `json:"nodeBudget,omitempty"`
	// MaxAttrs is accepted and ignored, like solve.Options.MaxAttrs.
	MaxAttrs int   `json:"maxAttrs,omitempty"`
	Workers  int   `json:"workers,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	Trials   int   `json:"trials,omitempty"`
}

// SolveResponse is the wire shape of a solve outcome. Status is "optimal"
// when optimality was proven, "feasible" for a certified heuristic answer,
// and "partial" when the deadline expired but the solver carried a feasible
// incumbent out (served with HTTP 206, the cmd/secureview exit-code-3
// analog).
type SolveResponse struct {
	Status     string       `json:"status"`
	Solver     string       `json:"solver"`
	Variant    string       `json:"variant"`
	Hidden     []string     `json:"hidden"`
	Privatized []string     `json:"privatized"`
	Cost       float64      `json:"cost"`
	Optimal    bool         `json:"optimal"`
	Partial    bool         `json:"partial"`
	Bound      BoundSpec    `json:"bound"`
	Counters   CountersSpec `json:"counters"`
	ElapsedMs  int64        `json:"elapsedMs"`
	// Fingerprint identifies THIS request's problem structure (costs
	// excluded, solve.ProblemFingerprint): cost-only edits of one workflow
	// share it.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Warm is always false (see the package comment).
	Warm bool `json:"warm,omitempty"`
}

// BoundSpec is the certificate attached to a result: the LP lower bound
// and the proven approximation factor with the paper theorem backing it.
type BoundSpec struct {
	LP      float64 `json:"lp,omitempty"`
	Factor  float64 `json:"factor,omitempty"`
	Theorem string  `json:"theorem,omitempty"`
}

// CountersSpec reports search effort.
type CountersSpec struct {
	Nodes   int `json:"nodes,omitempty"`
	Checked int `json:"checked,omitempty"`
	Pruned  int `json:"pruned,omitempty"`
	// MemoHits is always zero (see the package comment).
	MemoHits int `json:"memoHits,omitempty"`
}

// BatchRequest runs up to the server's job cap through solve.SolveBatch.
type BatchRequest struct {
	Jobs []SolveRequest `json:"jobs"`
}

// BatchResult is one job's outcome: Response on success or partial,
// Error otherwise. Code carries the HTTP status the job would have
// received as a single request.
type BatchResult struct {
	Code     int            `json:"code"`
	Response *SolveResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// BatchResponse pairs results with the request's jobs, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// SolversResponse is the GET /v1/solvers payload: every registered solver
// with its declared capabilities (variants, exactness, certification,
// structural limits and the certified-factor description), straight from
// the solve registry's Capabilities declarations.
type SolversResponse struct {
	Solvers []solve.Info `json:"solvers"`
}

// StatsResponse is the GET /v1/stats payload: shared-Session cache
// effectiveness and occupancy (eviction observable via Evictions/Bytes),
// the admission gauge, process lifetime, and — when the features are
// configured — snapshot and shard-ring observability.
type StatsResponse struct {
	Session  solve.SessionStats `json:"session"`
	InFlight int64              `json:"inFlight"`
	Capacity int                `json:"capacity"`
	// UptimeSeconds and StartTime (RFC 3339, UTC) date the process.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	StartTime     string  `json:"startTime"`
	// Ready mirrors /readyz: false only while a boot restore is running.
	Ready bool `json:"ready"`
	// Snapshot is present when -snapshot-path is configured.
	Snapshot *SnapshotStats `json:"snapshot,omitempty"`
	// Ring is present in shard mode (-peers).
	Ring *RingStats `json:"ring,omitempty"`
}

// SnapshotStats reports session snapshot/restore state.
type SnapshotStats struct {
	Path string `json:"path"`
	// LastAgeSeconds is the age of the newest snapshot written by THIS
	// process, or -1 when none has been written yet.
	LastAgeSeconds float64 `json:"lastAgeSeconds"`
	// LastBytes is that snapshot's size on disk.
	LastBytes int64 `json:"lastBytes"`
	// RestoredEntries counts cache entries loaded by the boot restore;
	// RestoreHit is true when the boot restore found a usable snapshot.
	RestoredEntries int64 `json:"restoredEntries"`
	RestoreHit      bool  `json:"restoreHit"`
}

// RingStats reports shard-mode routing activity on this replica.
type RingStats struct {
	Self  string   `json:"self"`
	Nodes []string `json:"nodes"`
	// Proxied counts requests this replica relayed to their owner;
	// Forwarded counts requests it served because a peer relayed them here;
	// OwnedLocal counts routable requests it owned itself; Fallbacks counts
	// owner transport failures absorbed by serving locally.
	Proxied    int64 `json:"proxied"`
	Forwarded  int64 `json:"forwarded"`
	OwnedLocal int64 `json:"ownedLocal"`
	Fallbacks  int64 `json:"fallbacks"`
}

// SnapshotResponse is the POST /v1/snapshot payload: where the snapshot
// landed and how many bytes it holds.
type SnapshotResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// parseVariant maps the wire name to the secureview constant.
func parseVariant(s string) (secureview.Variant, error) {
	switch s {
	case "", "set":
		return secureview.Set, nil
	case "cardinality", "card":
		return secureview.Cardinality, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want set | cardinality)", s)
	}
}

// variantName is the inverse of parseVariant for responses.
func variantName(v secureview.Variant) string {
	if v == secureview.Cardinality {
		return "cardinality"
	}
	return "set"
}

// instanceRef lowers the request's instance source onto the canonical
// gen.InstanceRef. The "exactly one source" validation happens inside
// gen.Resolve, so every consumer of the pipeline rejects ambiguous
// references with the same message.
func (r *SolveRequest) instanceRef() gen.InstanceRef {
	ref := gen.InstanceRef{Spec: r.Spec, CSV: r.CSV, Corpus: r.Corpus, Gamma: r.Gamma}
	if r.Generated != nil {
		ref.Class, ref.Seed = r.Generated.Class, r.Generated.Seed
	}
	return ref
}

// solveOptions lowers the wire options onto solve.Options.
func (r *SolveRequest) solveOptions(v secureview.Variant) solve.Options {
	opts := solve.Options{Variant: v}
	if o := r.Options; o != nil {
		opts.NodeBudget = o.NodeBudget
		opts.Workers = o.Workers
		opts.Seed = o.Seed
		opts.Trials = o.Trials
	}
	return opts
}

// sortedNames renders a name set as a JSON-friendly sorted slice (never
// null).
func sortedNames(s interface{ Sorted() []string }) []string {
	out := s.Sorted()
	if out == nil {
		out = []string{}
	}
	return out
}
