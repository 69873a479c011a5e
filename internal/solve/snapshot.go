package solve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/wire"
	"secureview/internal/workflow"
)

// Session snapshot/restore: the hot state a warmed server carries — its
// derived problems — serialized to a versioned, checksummed binary stream
// so a restart (or a fresh replica) boots with the cache it would otherwise
// spend minutes re-deriving.
//
// Restore is all-or-nothing and trust-bounded: the whole payload is
// CRC-verified and fully decoded (every count, key length and requirement
// bound re-validated) before a single entry is installed, so a corrupt,
// truncated or version-bumped file degrades to an empty session instead of
// a panic, a poisoned cache, or an error loop.
// Entry sizes are recomputed locally — never trusted from the file — and
// installation runs through the normal accounting paths, so restoring into
// a smaller byte budget simply evicts from the least-recent end.

// SnapshotVersion is the wire version of the session snapshot format. It
// must be bumped on ANY change to the entry encoding below; restore refuses
// other versions outright — snapshots are rebuildable caches, so
// cross-version migration is deliberately not attempted.
const SnapshotVersion = 1

// problemEntry is the wire tag of a derived-problem entry, the only kind a
// snapshot carries. Tags 0 (compiled module oracles) and 2 (warm-start
// frontiers) are retired: Restore refuses a snapshot holding either, as a
// whole.
const problemEntry = 1

// StructuralFingerprint returns the hex cost-independent structure key of a
// derivation request. Cost-only edits of a workflow share it, which is what
// makes it the sharding route key: an edit chain pins to one owner replica,
// whose session then holds the chain's delta source instead of scattering
// re-derivations across the ring.
func StructuralFingerprint(w *workflow.Workflow, v secureview.Variant, gamma uint64) string {
	_, structural := workflowKeys(w, v, gamma, nil, nil)
	return hex.EncodeToString([]byte(structural))
}

// Snapshot writes the session's completed cache entries to w, least
// recently used first, so that restoring replays them in recency order and
// the restored LRU list matches the source's. Entries still deriving,
// cached errors, and evicted entries are skipped: a snapshot holds only
// state worth shipping. Safe for concurrent use with serving traffic — the
// payload is assembled under the session lock, then sealed and written
// without it.
func (s *Session) Snapshot(w io.Writer) error {
	s.mu.Lock()
	var body []byte
	n := 0
	for e := s.back; e != nil; e = e.prev {
		// accounted was set under s.mu strictly after the deriving goroutine
		// completed the entry, so reading the payload fields here is ordered.
		if !e.accounted || e.err != nil || e.p == nil {
			continue
		}
		body = wire.AppendU32(body, problemEntry)
		body = wire.AppendString(body, e.key)
		body = wire.AppendString(body, e.structKey)
		body = appendProblem(body, e.p)
		n++
	}
	s.mu.Unlock()

	payload := wire.AppendU64(nil, uint64(n))
	payload = append(payload, body...)
	_, err := w.Write(wire.Seal(SnapshotVersion, payload))
	return err
}

// restoredEntry is one fully decoded and validated snapshot entry, staged
// before installation.
type restoredEntry struct {
	key       string
	structKey string
	p         *secureview.Problem
}

// Restore reads a snapshot from rd and installs its entries into the
// session, returning how many were installed. Decoding is strict and
// happens entirely before installation: any envelope, codec or validation
// failure returns an error with the session untouched. Keys already present
// win over snapshot entries (live state is newer than any file), and the
// session's byte budget applies as usual — restoring a large snapshot into
// a small session keeps only the most recently used tail.
func (s *Session) Restore(rd io.Reader) (int, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return 0, err
	}
	payload, err := wire.Open(data, SnapshotVersion)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(payload)
	n := r.Count(1)
	if err := r.Err(); err != nil {
		return 0, err
	}
	entries := make([]restoredEntry, 0, n)
	for i := 0; i < n; i++ {
		kind := r.U32()
		re := restoredEntry{key: r.String()}
		if err := r.Err(); err != nil {
			return 0, err
		}
		if kind != problemEntry {
			return 0, fmt.Errorf("solve: snapshot entry kind %d", kind)
		}
		if len(re.key) != sha256.Size {
			return 0, fmt.Errorf("solve: snapshot problem key of %d bytes", len(re.key))
		}
		re.structKey = r.String()
		if err := r.Err(); err != nil {
			return 0, err
		}
		if len(re.structKey) != 0 && len(re.structKey) != sha256.Size {
			return 0, fmt.Errorf("solve: snapshot structure key of %d bytes", len(re.structKey))
		}
		if re.p, err = decodeProblem(r); err != nil {
			return 0, err
		}
		entries = append(entries, re)
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	if r.Remaining() != 0 {
		return 0, fmt.Errorf("solve: %d trailing bytes after snapshot entries", r.Remaining())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	installed := 0
	for _, re := range entries {
		if _, ok := s.problems[re.key]; ok {
			continue
		}
		e := &sessionEntry{key: re.key, done: true, p: re.p,
			size: problemSize(re.p), structKey: re.structKey}
		s.problems[re.key] = e
		s.touchLocked(e)
		e.accounted = true
		s.bytes += e.size
		if e.structKey != "" {
			s.structIdx[e.structKey] = e
		}
		installed++
	}
	s.evictOverLocked()
	return installed, nil
}

// RestoreSession builds a session with the given byte budget from a
// snapshot stream. It ALWAYS returns a usable session: on any decode
// failure the session is simply empty and the error reports why — callers
// log it and serve cold, they never crash-loop on a bad snapshot file.
func RestoreSession(rd io.Reader, maxBytes int64) (*Session, int, error) {
	s := NewSessionBytes(maxBytes)
	n, err := s.Restore(rd)
	return s, n, err
}

// appendStrings appends a count-prefixed string list.
func appendStrings(buf []byte, list []string) []byte {
	buf = wire.AppendU64(buf, uint64(len(list)))
	for _, s := range list {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

// decodeStrings reads a count-prefixed string list.
func decodeStrings(r *wire.Reader) []string {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// appendProblem appends a derived problem: module specs in order, then the
// cost map in sorted name order so the encoding is deterministic.
func appendProblem(buf []byte, p *secureview.Problem) []byte {
	buf = wire.AppendU64(buf, uint64(len(p.Modules)))
	for i := range p.Modules {
		m := &p.Modules[i]
		buf = wire.AppendString(buf, m.Name)
		buf = appendStrings(buf, m.Inputs)
		buf = appendStrings(buf, m.Outputs)
		buf = wire.AppendBool(buf, m.Public)
		buf = wire.AppendF64(buf, m.PrivatizeCost)
		buf = wire.AppendU64(buf, uint64(len(m.CardList)))
		for _, cr := range m.CardList {
			buf = wire.AppendU64(buf, uint64(cr.Alpha))
			buf = wire.AppendU64(buf, uint64(cr.Beta))
		}
		buf = wire.AppendU64(buf, uint64(len(m.SetList)))
		for _, sr := range m.SetList {
			buf = appendStrings(buf, sr.In)
			buf = appendStrings(buf, sr.Out)
		}
	}
	names := make([]string, 0, len(p.Costs))
	for a := range p.Costs {
		names = append(names, a)
	}
	sort.Strings(names)
	buf = wire.AppendU64(buf, uint64(len(names)))
	for _, a := range names {
		buf = wire.AppendString(buf, a)
		buf = wire.AppendF64(buf, p.Costs[a])
	}
	return buf
}

// decodeProblem reads one derived problem, re-validating the bounds the
// solvers rely on (cardinality requirements within int32, finite counts).
func decodeProblem(r *wire.Reader) (*secureview.Problem, error) {
	nMods := r.Count(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	p := &secureview.Problem{Modules: make([]secureview.ModuleSpec, nMods)}
	for i := range p.Modules {
		m := &p.Modules[i]
		m.Name = r.String()
		if m.Name == "" && r.Err() == nil {
			return nil, fmt.Errorf("solve: snapshot module %d has empty name", i)
		}
		m.Inputs = decodeStrings(r)
		m.Outputs = decodeStrings(r)
		m.Public = r.Bool()
		m.PrivatizeCost = r.F64()
		nCard := r.Count(16)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nCard > 0 {
			m.CardList = make([]secureview.CardReq, nCard)
			for j := range m.CardList {
				alpha, beta := r.U64(), r.U64()
				if alpha > math.MaxInt32 || beta > math.MaxInt32 {
					if r.Err() == nil {
						return nil, fmt.Errorf("solve: snapshot requirement (%d,%d) out of range", alpha, beta)
					}
					return nil, r.Err()
				}
				m.CardList[j] = secureview.CardReq{Alpha: int(alpha), Beta: int(beta)}
			}
		}
		nSet := r.Count(16)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nSet > 0 {
			m.SetList = make([]secureview.SetReq, nSet)
			for j := range m.SetList {
				m.SetList[j] = secureview.SetReq{In: decodeStrings(r), Out: decodeStrings(r)}
			}
		}
	}
	nCosts := r.Count(16)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nCosts > 0 {
		p.Costs = make(privacy.Costs, nCosts)
		for i := 0; i < nCosts; i++ {
			a := r.String()
			c := r.F64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			p.Costs[a] = c
		}
	}
	return p, r.Err()
}
