package solve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/workflow"
)

// Session caches the expensive immutable state behind repeated solve
// requests: derived Secure-View problems (the per-module standalone
// analyses of Theorems 4/8 dominate end-to-end latency), keyed by content
// fingerprints so renamed handles to the same workflow share entries. All
// cached values are immutable after construction and safe to share across
// goroutines; a Session is safe for concurrent use, and concurrent requests
// for the same fingerprint perform the work once (later arrivals block on
// the first).
//
// A Session constructed with NewSessionBytes accounts the approximate
// resident size of every cached value and evicts least-recently-used
// entries whenever the accounted total would exceed the budget, so a
// long-running server can front an unbounded stream of distinct workflows
// with bounded memory. NewSession keeps the historical unbounded behavior.
// Eviction is observable through Stats. Evicting an entry never invalidates
// pointers already handed out — cached values are immutable — it only
// forces the next request for that fingerprint to re-derive.
//
// One Session fronting a batch of jobs derives each distinct workflow once
// per variant, however many (instance, solver) pairs the batch fans out.
//
// Beside its content keys a Session holds aliases: keys a caller builds
// from a reference that names one workflow deterministically (the server
// binds a class+seed or corpus ID as sent, with its Γ override and
// variant). Entry binds an alias once its entry has committed, and Alias
// then serves that entry with one locked map read, counted as a hit, so a
// repeat reference skips regenerating and re-hashing its workflow. An
// alias's bytes count in its entry's size, it is dropped when the entry is
// evicted, and snapshots do not carry it: after a restore, the first
// request through a reference hits by content and binds it again. Entries
// stay content-keyed; there is still one cache.
type Session struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	problems map[string]*sessionEntry
	// structIdx maps a derivation's cost-independent structure key to the
	// most recent completed problem entry with that structure, powering the
	// DeltaDerive fast path: a request whose full key misses but whose
	// structure key hits re-costs the cached problem instead of re-running
	// the per-module analyses. Maintained under mu; entries are removed when
	// the backing problem entry is evicted.
	structIdx map[string]*sessionEntry
	// aliases maps a caller-built reference key to the committed entry it
	// resolved to (see Alias). Maintained under mu.
	aliases map[string]*sessionEntry
	// LRU list; front = most recently used.
	front, back  *sessionEntry
	hits         int
	misses       int
	evictions    int
	deltaDerives int
}

// sessionEntry is one cached derivation. done/size/p/err
// are guarded by mu (the singleflight lock: the first caller derives while
// later arrivals block) until the entry commits; after that p and err are
// immutable and size, which then grows only by bound aliases, is guarded by
// the Session mutex, like the list links, the alias list and the
// accounted/evicted flags. accounted marks that size has been added to
// the session byte total (i.e. the derivation committed), which is what the
// eviction walk keys on — entries still deriving carry no accounted bytes.
type sessionEntry struct {
	key string

	mu   sync.Mutex
	done bool
	size int64
	p    *secureview.Problem
	err  error

	prev, next *sessionEntry
	accounted  bool
	evicted    bool
	// structKey links a completed entry to its structIdx slot so eviction
	// can drop the index entry. Guarded by the Session mutex.
	structKey string
	// aliases lists the alias keys bound to this entry, so eviction can
	// drop them. Guarded by the Session mutex.
	aliases []string

	// fp keeps the entry's ProblemFingerprint once the first response has
	// computed it (Entry.Fingerprint).
	fpOnce sync.Once
	fp     string
}

// Entry is one request's handle on a Session entry: the derived problem,
// or the error the request got (a cached derivation error, or its own
// context error), plus the response fingerprint the entry keeps. An Entry
// built from a problem the Session does not hold computes its fingerprint
// on every call.
type Entry struct {
	P   *secureview.Problem
	Err error
	e   *sessionEntry
}

// Fingerprint returns ProblemFingerprint(x.P, v). A Session entry computes
// it on the first call and keeps it; every request reaching one entry names
// the same variant, which is part of the entry's key.
func (x Entry) Fingerprint(v secureview.Variant) string {
	if x.e == nil {
		return ProblemFingerprint(x.P, v)
	}
	x.e.fpOnce.Do(func() { x.e.fp = ProblemFingerprint(x.P, v) })
	return x.e.fp
}

// NewSession returns an empty session with no size bound.
func NewSession() *Session {
	return NewSessionBytes(0)
}

// NewSessionBytes returns an empty session that keeps its accounted cache
// size at or below maxBytes by LRU eviction (0 = unbounded). The accounting
// is an estimate of resident size (problem specs), not exact heap usage.
func NewSessionBytes(maxBytes int64) *Session {
	return &Session{
		maxBytes:  maxBytes,
		problems:  make(map[string]*sessionEntry),
		structIdx: make(map[string]*sessionEntry),
		aliases:   make(map[string]*sessionEntry),
	}
}

// SessionStats is a snapshot of cache effectiveness and occupancy. The
// JSON tags are the wire shape internal/server exposes at /v1/stats.
type SessionStats struct {
	// Hits counts requests served from a completed cache entry, by content
	// key or by alias; Misses counts derivations actually performed.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Evictions counts entries removed under memory pressure.
	Evictions int `json:"evictions"`
	// WarmHits and WarmMisses are always 0 (see RetiredFrontier).
	WarmHits   int `json:"warmHits"`
	WarmMisses int `json:"warmMisses"`
	// DeltaDerives counts problem derivations served by re-costing a cached
	// structurally identical problem instead of re-running the per-module
	// analyses (a subset of Misses).
	DeltaDerives int `json:"deltaDerives"`
	// Entries and Bytes are the current occupancy; MaxBytes echoes the configured budget (0 = unbounded). Bytes never
	// exceeds MaxBytes when a budget is set.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"maxBytes"`
}

// Stats reports cache hits, misses, evictions and current occupancy.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Hits:         s.hits,
		Misses:       s.misses,
		Evictions:    s.evictions,
		DeltaDerives: s.deltaDerives,
		Entries:      len(s.problems),
		Bytes:        s.bytes,
		MaxBytes:     s.maxBytes,
	}
}

// lookup returns the problem entry for key, creating it on first request,
// and marks it most recently used.
func (s *Session) lookup(key string) *sessionEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.problems[key]
	if !ok {
		e = &sessionEntry{key: key}
		s.problems[key] = e
	}
	s.touchLocked(e)
	return e
}

// touchLocked moves e to the front of the LRU list (inserting it if new).
// Caller holds s.mu.
func (s *Session) touchLocked(e *sessionEntry) {
	if s.front == e {
		return
	}
	s.unlinkLocked(e)
	e.next = s.front
	if s.front != nil {
		s.front.prev = e
	}
	s.front = e
	if s.back == nil {
		s.back = e
	}
}

// unlinkLocked removes e from the LRU list if present. Caller holds s.mu.
func (s *Session) unlinkLocked(e *sessionEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.front == e {
		s.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.back == e {
		s.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// commit records a finished derivation's size and evicts LRU entries until
// the budget holds again. The just-finished entry itself is evictable: a
// single value larger than the whole budget is dropped immediately (the
// caller keeps its pointer; only future requests re-derive), so the
// accounted total never exceeds the budget. A successful derivation is also
// published in the structure index (enabling later DeltaDerives), and the
// counters record whether this derivation itself was served by delta
// re-costing. A non-empty alias is bound to the committed entry.
func (s *Session) commit(e *sessionEntry, structKey, alias string, delta bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++
	if delta {
		s.deltaDerives++
	}
	if e.evicted {
		return
	}
	e.accounted = true
	s.bytes += e.size
	if structKey != "" && e.err == nil && e.p != nil {
		e.structKey = structKey
		s.structIdx[structKey] = e
	}
	s.bindLocked(alias, e)
	s.evictOverLocked()
}

// aliasSize is the fixed accounting overhead of one bound alias (map slot,
// string headers, alias-list slot), beside the key's own bytes.
const aliasSize int64 = 64

// bindLocked binds alias to e once e has committed, counting the alias's
// bytes in e's size. Caller holds s.mu and runs the eviction walk after.
func (s *Session) bindLocked(alias string, e *sessionEntry) {
	if alias == "" || !e.accounted || s.aliases[alias] == e {
		return
	}
	s.aliases[alias] = e
	e.aliases = append(e.aliases, alias)
	n := aliasSize + int64(len(alias))
	e.size += n
	s.bytes += n
}

// Alias returns the entry an earlier Entry call bound to key, counted as a
// hit and marked most recently used. It reports false when key is empty or
// unbound, or when ctx is already done: the caller then takes its full
// path, which reports the context error as Problem does.
func (s *Session) Alias(ctx context.Context, key string) (Entry, bool) {
	if key == "" || ctx.Err() != nil {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.aliases[key]
	if e == nil {
		return Entry{}, false
	}
	s.touchLocked(e)
	s.hits++
	// Bound entries have committed, and their payload was written before
	// that commit took s.mu, so reading it under s.mu is ordered.
	return Entry{P: e.p, Err: e.err, e: e}, true
}

// evictOverLocked evicts LRU accounted entries until the budget holds.
// Caller holds s.mu.
func (s *Session) evictOverLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for cur := s.back; cur != nil && s.bytes > s.maxBytes; {
		prev := cur.prev
		// Entries still deriving are not yet accounted and carry no
		// bytes; evicting them would not relieve pressure, so skip them.
		if cur.accounted {
			s.evictLocked(cur)
		}
		cur = prev
	}
}

// discard removes a never-completed entry whose creating caller cancelled
// before deriving, so abandoned fingerprints do not pin map slots forever.
// If a concurrent waiter completed and committed the derivation in the
// meantime, the entry is valid cached work and stays. Not counted in
// Evictions — this is cleanup, not memory pressure.
func (s *Session) discard(e *sessionEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.evicted || e.accounted {
		return
	}
	// Guard against ABA: if pressure evicted e and a later caller re-created
	// the key, the map now holds a different entry that must survive.
	if s.problems[e.key] != e {
		return
	}
	e.evicted = true
	delete(s.problems, e.key)
	s.unlinkLocked(e)
}

// evictLocked removes e from the cache and the LRU list. Caller holds s.mu.
func (s *Session) evictLocked(e *sessionEntry) {
	if e.evicted {
		return
	}
	e.evicted = true
	if e.accounted {
		s.bytes -= e.size
		e.accounted = false
	}
	delete(s.problems, e.key)
	if e.structKey != "" && s.structIdx[e.structKey] == e {
		delete(s.structIdx, e.structKey)
	}
	for _, a := range e.aliases {
		if s.aliases[a] == e {
			delete(s.aliases, a)
		}
	}
	e.aliases = nil
	s.unlinkLocked(e)
	s.evictions++
}

// hashStr writes a tagged, length-prefixed string into h. The length prefix
// makes the encoding injective: names containing the bytes another field
// uses (';', ':', '=', tag letters) cannot shift field boundaries, so two
// distinct workflows can never serialize to one byte stream.
func hashStr(h hash.Hash, tag byte, s string) {
	var buf [9]byte
	buf[0] = tag
	binary.LittleEndian.PutUint64(buf[1:], uint64(len(s)))
	h.Write(buf[:])
	io.WriteString(h, s)
}

// hashU64 writes a fixed-width integer into h.
func hashU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// hashModuleView writes a module view's identity — attribute split, schema
// domains and full row set — into h. Names matter (solutions are name
// sets), so renamed copies of one function hash differently. Every string
// is length-prefixed and every section is count-prefixed; no delimiter
// byte is load-bearing.
func hashModuleView(h hash.Hash, mv privacy.ModuleView) {
	hashU64(h, uint64(len(mv.Inputs)))
	for _, n := range mv.Inputs {
		hashStr(h, 'i', n)
	}
	hashU64(h, uint64(len(mv.Outputs)))
	for _, n := range mv.Outputs {
		hashStr(h, 'o', n)
	}
	sc := mv.Rel.Schema()
	hashU64(h, uint64(sc.Len()))
	for i := 0; i < sc.Len(); i++ {
		a := sc.Attr(i)
		hashStr(h, 'd', a.Name)
		hashU64(h, uint64(a.Domain))
	}
	rows := mv.Rel.SortedRows()
	hashU64(h, uint64(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			hashU64(h, uint64(v))
		}
	}
}

// hashCosts writes a name→float64 map in sorted name order, count-prefixed.
func hashCosts(h hash.Hash, tag byte, costs map[string]float64) {
	names := make([]string, 0, len(costs))
	for a := range costs {
		names = append(names, a)
	}
	sort.Strings(names)
	hashU64(h, uint64(len(names)))
	for _, a := range names {
		hashStr(h, tag, a)
		hashU64(h, math.Float64bits(costs[a]))
	}
}

// workflowKeys fingerprints a derivation request: every module's identity
// plus visibility, the privacy requirement, the variant and both cost
// assignments. The workflow's own name is deliberately NOT hashed — it
// never affects the derived problem (solutions are attribute/module name
// sets), so renamed handles to the same workflow share one entry.
//
// Two keys come back from one hashing pass: full covers everything,
// structural stops before the cost maps. Costs enter a derived problem only
// as Problem.Costs and ModuleSpec.PrivatizeCost — the expensive per-module
// requirement analyses never read them — so two requests sharing a
// structural key differ only by re-costing (the DeltaDerive fast path).
func workflowKeys(w *workflow.Workflow, v secureview.Variant, gamma uint64,
	costs privacy.Costs, privatizeCosts map[string]float64) (full, structural string) {
	h := sha256.New()
	hashStr(h, 'V', "solve/v2")
	hashU64(h, uint64(v))
	hashU64(h, gamma)
	mods := w.Modules()
	hashU64(h, uint64(len(mods)))
	for _, m := range mods {
		hashStr(h, 'm', m.Name())
		hashU64(h, uint64(m.Visibility()))
		hashModuleView(h, privacy.NewModuleView(m))
	}
	structural = string(h.Sum(nil))
	hashCosts(h, 'c', costs)
	hashCosts(h, 'p', privatizeCosts)
	return string(h.Sum(nil)), structural
}

// workflowKey is the full (cost-inclusive) cache key alone.
func workflowKey(w *workflow.Workflow, v secureview.Variant, gamma uint64,
	costs privacy.Costs, privatizeCosts map[string]float64) string {
	full, _ := workflowKeys(w, v, gamma, costs, privatizeCosts)
	return full
}

// deltaSource returns the cached problem to re-cost for the given structure
// key, or nil when none is available. Entries reached through structIdx are
// complete (commit indexes only successful derivations) and immutable, so
// reading p under s.mu alone is safe: the index insertion happened under
// s.mu after the derivation wrote p.
func (s *Session) deltaSource(structKey string) *secureview.Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.structIdx[structKey]; e != nil {
		return e.p
	}
	return nil
}

// deltaClone re-costs a structurally identical derived problem: the
// requirement lists and module interfaces are shared (immutable after
// derivation), only Costs and the public modules' PrivatizeCost change —
// exactly the two places DeriveOptions costs land, so the clone is
// indistinguishable from a fresh derivation with the new costs. Problems
// are never mutated after construction, so the clone shares src's module
// specs too unless a public module's privatization cost changes.
func deltaClone(src *secureview.Problem, costs privacy.Costs,
	privatizeCosts map[string]float64) *secureview.Problem {
	mods := src.Modules
	for i, m := range src.Modules {
		c := privatizeCosts[m.Name]
		if !m.Public || math.Float64bits(c) == math.Float64bits(m.PrivatizeCost) {
			continue
		}
		if &mods[0] == &src.Modules[0] {
			mods = slices.Clone(src.Modules)
		}
		mods[i].PrivatizeCost = c
	}
	return &secureview.Problem{Modules: mods, Costs: costs}
}

// Problem returns the Secure-View instance derived from (w, Γ, costs) in
// the given variant, deriving it on first use and serving every later
// request — from any goroutine — out of the cache. Deterministic derivation
// errors (e.g. secureview.ErrInfeasible) are cached alongside: a workflow
// with no safe subsets at Γ is not re-analyzed per request.
//
// The context gates only cache misses (the derivation's per-module engine
// sweeps run to completion once started); it is checked before any work,
// including immediately before derivation starts — a caller whose context
// died while it waited for the map slot returns ctx.Err() without deriving
// and without poisoning the entry, so the next caller performs the work.
func (s *Session) Problem(ctx context.Context, w *workflow.Workflow, v secureview.Variant,
	gamma uint64, costs privacy.Costs, privatizeCosts map[string]float64) (*secureview.Problem, error) {
	x := s.Entry(ctx, "", w, v, gamma, costs, privatizeCosts)
	return x.P, x.Err
}

// Entry is Problem returning the request's handle on the entry, and binding
// alias, when non-empty, to the entry once it has committed: whether this
// call derived it or hit it by content. A call that returns its context
// error binds nothing.
func (s *Session) Entry(ctx context.Context, alias string, w *workflow.Workflow, v secureview.Variant,
	gamma uint64, costs privacy.Costs, privatizeCosts map[string]float64) Entry {
	if err := ctx.Err(); err != nil {
		return Entry{Err: err}
	}
	full, structKey := workflowKeys(w, v, gamma, costs, privatizeCosts)
	// Resolve a potential delta source before taking the entry lock — no
	// path may block on s.mu while holding an entry lock. On a cache hit the
	// index read is wasted, but it is a single locked map access.
	src := s.deltaSource(structKey)
	e := s.lookup(full)
	e.mu.Lock()
	if e.done {
		// Copy under e.mu, count the hit after releasing it: no path may
		// block on s.mu while holding an entry lock, or commit's eviction
		// walk would mistake a done entry for one still deriving.
		x := Entry{P: e.p, Err: e.err, e: e}
		e.mu.Unlock()
		s.mu.Lock()
		s.hits++
		s.bindLocked(alias, e)
		s.evictOverLocked()
		s.mu.Unlock()
		return x
	}
	// Re-check before committing to the derivation: the wait for the entry
	// lock may have outlived the caller's deadline, and a cancelled caller
	// must neither burn the sweep nor cache its own context error. The
	// abandoned entry is discarded so fingerprints whose only caller
	// cancelled do not accumulate in a capped session.
	if err := ctx.Err(); err != nil {
		e.mu.Unlock()
		s.discard(e)
		return Entry{Err: err}
	}
	delta := false
	if src != nil {
		e.p, e.err = deltaClone(src, costs, privatizeCosts), nil
		delta = true
	} else {
		e.p, e.err = secureview.Derive(w, v, secureview.DeriveOptions{
			Gamma: gamma, Costs: costs, PrivatizeCosts: privatizeCosts,
		})
	}
	e.done = true
	e.size = problemSize(e.p)
	x := Entry{P: e.p, Err: e.err, e: e}
	e.mu.Unlock()
	s.commit(e, structKey, alias, delta)
	return x
}

// entrySize is the fixed accounting overhead per cache entry (SHA-256 key,
// entry struct, map slot, list links, and the 64-byte hex fingerprint the
// entry keeps once a response has computed it).
const entrySize int64 = 240

// problemSize estimates the resident bytes of a derived problem: module
// specs (names, attribute name slices, requirement lists) plus the cost
// map. An error entry costs only its overhead.
func problemSize(p *secureview.Problem) int64 {
	size := entrySize
	if p == nil {
		return size
	}
	for i := range p.Modules {
		m := &p.Modules[i]
		size += 96 + int64(len(m.Name))
		for _, a := range m.Inputs {
			size += 16 + int64(len(a))
		}
		for _, a := range m.Outputs {
			size += 16 + int64(len(a))
		}
		for _, r := range m.SetList {
			size += 48
			for _, a := range r.In {
				size += 16 + int64(len(a))
			}
			for _, a := range r.Out {
				size += 16 + int64(len(a))
			}
		}
		size += 16 * int64(len(m.CardList))
	}
	for a := range p.Costs {
		size += 48 + int64(len(a))
	}
	return size
}
