package search

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// LevelMax caps the full-lattice sweep (MinimalSafeHidden), which keeps two
// bits per mask (256 KiB at k=20) and whose output is exponential anyway.
const LevelMax = 20

// MinimalSafeHidden enumerates the inclusion-minimal hidden masks whose
// complementary visible set the oracle accepts, ordered by popcount then
// numeric mask value. By Proposition 1 these generate every safe solution; a
// hidden mask with a known-safe subset is safe but not minimal, so it is
// skipped without a test.
func (s *Space) MinimalSafeHidden(oracle Oracle, opts Options) ([]Mask, Stats, error) {
	k := s.K()
	if k > LevelMax {
		return nil, Stats{}, fmt.Errorf("search: %d attributes too many to enumerate", k)
	}
	all := s.All()
	safeBits := newBitmap(1 << k)
	minimalBits := newBitmap(1 << k)
	levels := s.buildLevels()
	stats, err := sweepLevels(levels, opts, func(m Mask) (bool, error) {
		for x := m; x != 0; x &= x - 1 {
			if safeBits.get(m &^ (x & -x)) {
				safeBits.set(m)
				return false, nil // dominated: safe but not minimal
			}
		}
		safe, err := oracle(all &^ m)
		if err != nil {
			return false, err
		}
		if safe {
			safeBits.set(m)
			minimalBits.set(m)
		}
		return true, nil
	})
	if err != nil {
		return nil, stats, err
	}
	var out []Mask
	for _, level := range levels {
		for _, m := range level {
			if minimalBits.get(m) {
				out = append(out, m)
			}
		}
	}
	return out, stats, nil
}

// buildLevels buckets the universe's masks by popcount, each bucket in
// ascending numeric order.
func (s *Space) buildLevels() [][]Mask {
	k := s.K()
	levels := make([][]Mask, k+1)
	for m := 0; m < 1<<k; m++ {
		pc := bits.OnesCount32(uint32(m))
		levels[pc] = append(levels[pc], Mask(m))
	}
	return levels
}

// sweepLevels visits every mask of the universe in ascending popcount levels,
// sharding each level over the worker pool with a barrier between levels (a
// level only reads decisions from strictly smaller levels, so masks within
// one level are independent). visit returns whether it performed a safety
// test; its errors cancel the sweep.
func sweepLevels(levels [][]Mask, opts Options, visit func(Mask) (bool, error)) (Stats, error) {
	var checked, pruned atomic.Int64
	var firstErr atomic.Value
	var failed atomic.Bool
	for _, level := range levels {
		workers := opts.workers()
		if workers > len(level) {
			workers = len(level)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(level); i += workers {
					if failed.Load() {
						return
					}
					tested, err := visit(level[i])
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						failed.Store(true)
						return
					}
					if tested {
						checked.Add(1)
					} else {
						pruned.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			break
		}
	}
	stats := Stats{Checked: int(checked.Load()), Pruned: int(pruned.Load())}
	if err, ok := firstErr.Load().(error); ok {
		return stats, err
	}
	return stats, nil
}

// bitmap is a fixed-size atomic bit set over masks. Bits are only ever set,
// never cleared; reads and writes use atomics so same-word neighbours can be
// touched from different workers.
type bitmap struct{ words []uint64 }

func newBitmap(n int) *bitmap { return &bitmap{words: make([]uint64, (n+63)/64)} }

func (b *bitmap) set(m Mask) {
	atomic.OrUint64(&b.words[m>>6], 1<<(m&63))
}

func (b *bitmap) get(m Mask) bool {
	return atomic.LoadUint64(&b.words[m>>6])&(1<<(m&63)) != 0
}
