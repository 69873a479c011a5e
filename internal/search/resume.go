package search

import (
	"math"
	"sync"
)

// Warm-start support: a finished MinCost run can export its Proposition 1
// domination stores plus incumbent as a Frontier, and a later run over the
// SAME attribute universe can import it via Options.Resume. Soundness rests
// on the safety verdicts being cost-independent — an oracle answers for a
// visible set, never for a cost — so every decided safe/unsafe mask remains
// valid under any re-weighting of the hiding costs. A Frontier is therefore
// reusable across cost-only edits of a problem; any structural change (the
// attribute universe differs in content or order) is detected at resume time
// and the Frontier is conservatively ignored, falling back to a cold search.

// memoCap bounds the exported verdict memo. Beyond it the memo restarts
// from the current run's own verdicts: an edit session that has drifted far
// enough to accumulate a million distinct verdicts is no longer "the same
// instance with tweaked costs", and an unbounded memo would defeat the
// cache accounting above it.
const memoCap = 1 << 20

// Frontier is the warm-start state exported by a MinCost run: the attribute
// universe it was computed over, the Proposition 1 domination antichains
// (maximal safe / minimal unsafe VISIBLE masks, each capped at
// DefaultFrontierCap), the full verdict memo of every oracle answer the run
// obtained (and inherited), and the run's incumbent hidden mask. All of it
// is cost-independent, which is what makes re-importing it sound under
// re-weighted costs.
//
// A cold sorted run does not keep domination stores while it scans; it
// exports its per-worker verdict logs instead, and the antichains and memo
// are built from them, once, the first time something reads them (a
// resume, AppendBinary, Counts or MemoLen). The build replays the logs in
// test order through the same capped inserts the stores use, so the built
// state is exactly what eager stores would have held. Frontiers are
// logically immutable and safe to share across concurrent readers and
// resuming searches; the build runs under a sync.Once.
type Frontier struct {
	attrs     []string
	incumbent Mask // optimal hidden mask of the exporting run
	found     bool // whether the exporting run found any safe view
	memoLen   int  // verdicts in the memo, known before the build

	build  sync.Once
	log    [][]verdict   // unbuilt: a cold run's verdict logs; nil once built
	safe   []Mask        // inclusion-maximal safe visible masks
	unsafe []Mask        // inclusion-minimal unsafe visible masks
	memo   map[Mask]bool // visible mask -> oracle verdict
}

// built replays an unbuilt frontier's verdict logs into its antichains and
// memo on first call, and returns the receiver. Every verdict of a cold
// sorted run is for a distinct visible mask, so the memo holds exactly
// memoLen entries and MemSize prices the frontier the same before and after.
func (f *Frontier) built() *Frontier {
	f.build.Do(func() {
		if f.log == nil {
			return
		}
		safe, unsafe := newFrontier(DefaultFrontierCap), newFrontier(DefaultFrontierCap)
		for _, vs := range f.log {
			for _, v := range vs {
				if v.safe {
					safe.insertMaximal(v.vis)
				} else {
					unsafe.insertMinimal(v.vis)
				}
			}
		}
		f.safe, f.unsafe = safe.snapshot(), unsafe.snapshot()
		f.memo = mergeMemo(nil, f.log)
		f.log = nil
	})
	return f
}

// Attrs returns the attribute universe the frontier was computed over
// (do not mutate). Resume only accepts a Frontier whose universe matches
// the target Space exactly, element for element.
func (f *Frontier) Attrs() []string { return f.attrs }

// Counts returns the number of stored maximal-safe and minimal-unsafe
// visible masks.
func (f *Frontier) Counts() (safe, unsafe int) {
	f.built()
	return len(f.safe), len(f.unsafe)
}

// MemoLen returns the number of memoized oracle verdicts carried by the
// frontier.
func (f *Frontier) MemoLen() int { return len(f.built().memo) }

// Incumbent returns the exporting run's optimal hidden mask and whether one
// was found. Under re-weighted costs it is merely a feasible (safe) hidden
// set, not necessarily optimal.
func (f *Frontier) Incumbent() (Mask, bool) { return f.incumbent, f.found }

// MemSize estimates the retained bytes of the frontier for cache accounting:
// mask storage plus the attribute strings (headers + bytes). It never builds
// the frontier: each antichain is priced at its DefaultFrontierCap bound and
// the memo by its verdict count, so a frontier costs the same before and
// after its first read, and after a snapshot round trip.
func (f *Frontier) MemSize() int64 {
	// A map[Mask]bool entry retains roughly 5 payload bytes plus bucket
	// overhead; 24 bytes per entry is the usual empirical figure.
	size := int64(2*DefaultFrontierCap)*4 + int64(f.memoLen)*24
	for _, a := range f.attrs {
		size += int64(len(a)) + 16
	}
	return size + 64
}

// matches reports whether the frontier's universe is exactly the Space's.
func (f *Frontier) matches(s *Space) bool {
	if f == nil || len(f.attrs) != len(s.attrs) {
		return false
	}
	for i, a := range f.attrs {
		if s.attrs[i] != a {
			return false
		}
	}
	return true
}

// seedResume imports a Frontier into freshly created domination stores. It
// returns whether the frontier was accepted (universe matched) and how many
// masks of each kind were imported; a mismatched or nil frontier imports
// nothing, degrading to a cold search. Called before any worker starts, so
// the store inserts are uncontended.
func (s *Space) seedResume(f *Frontier, safeFront, unsafeFront *frontier) (ok bool, nSafe, nUnsafe int) {
	if !f.matches(s) {
		return false, 0, 0
	}
	f.built()
	all := s.All()
	for _, v := range f.safe {
		if v&^all != 0 {
			continue // defensive: mask outside the universe
		}
		safeFront.insertMaximal(v)
		nSafe++
	}
	for _, v := range f.unsafe {
		if v&^all != 0 {
			continue
		}
		unsafeFront.insertMinimal(v)
		nUnsafe++
	}
	return true, nSafe, nUnsafe
}

// resumeMemo returns the verdict memo the run should consult: the
// frontier's when its universe matches, nil otherwise. The map is read-only
// for the whole run (Frontiers are immutable), so workers share it without
// locking.
func (s *Space) resumeMemo(f *Frontier) map[Mask]bool {
	if !f.matches(s) {
		return nil
	}
	return f.built().memo
}

// verdict records one fresh oracle answer for the exported memo.
type verdict struct {
	vis  Mask
	safe bool
}

// mergeMemo builds the exported verdict memo from the inherited entries
// plus the run's fresh answers. When the union would exceed memoCap the
// inherited entries are dropped and the memo restarts from this run's own
// verdicts, bounding warm-state growth across long edit chains.
func mergeMemo(old map[Mask]bool, fresh [][]verdict) map[Mask]bool {
	n := 0
	for _, fs := range fresh {
		n += len(fs)
	}
	if n+len(old) == 0 {
		return nil
	}
	var out map[Mask]bool
	if len(old) > 0 && n+len(old) <= memoCap {
		out = make(map[Mask]bool, n+len(old))
		for m, v := range old {
			out[m] = v
		}
	} else {
		out = make(map[Mask]bool, n)
	}
	for _, fs := range fresh {
		for _, f := range fs {
			out[f.vis] = f.safe
		}
	}
	return out
}

// seedBound returns the cheapest hidden-mask cost among the frontier's safe
// visible masks under the CURRENT Space costs (the complement of a safe
// visible set is a feasible hidden set), or +Inf when none apply. Used to
// pre-charge the streaming path's shared best-cost bound: candidates
// strictly above it can never beat the already-known feasible solution.
//
// costOf MUST be the exact cost evaluation the resuming scan applies to its
// own candidates (the subset-sum table below sortedMax, the bit loop above
// it). Floating-point addition is not associative, so pricing the seed
// through a different summation order can land one ulp above the scan's
// price for the same mask — and "equal cost stays in play" then prunes the
// known optimum itself, turning a feasible instance infeasible on resume.
func (s *Space) seedBound(f *Frontier, costOf func(Mask) float64) float64 {
	all := s.All()
	best := math.Inf(1)
	for _, v := range f.built().safe {
		if v&^all != 0 {
			continue
		}
		if c := costOf(all &^ v); c < best {
			best = c
		}
	}
	if f.found && f.incumbent&^all == 0 {
		// The incumbent's visible complement may have been dropped from a
		// capped safe store; it is still a known-safe view.
		if c := costOf(f.incumbent); c < best {
			best = c
		}
	}
	return best
}

// snapshot copies the store's current antichain for export.
func (f *frontier) snapshot() []Mask {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.masks) == 0 {
		return nil
	}
	out := make([]Mask, len(f.masks))
	copy(out, f.masks)
	return out
}
