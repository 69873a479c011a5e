package search

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Result is the outcome of a minimum-cost subset search.
type Result struct {
	// Hidden is the optimal hidden mask; its complement within the universe
	// is the visible set the oracle accepted.
	Hidden Mask
	// Cost is the hidden mask's total cost.
	Cost float64
	// Found is false when no mask — not even hiding everything — is safe.
	Found bool
	// Stats reports safety tests performed vs candidates pruned.
	Stats Stats
}

// sortedMax is the largest universe for which MinCost materializes the full
// candidate list in (cost, lex) order (~32 bytes per mask across the lex
// scatter, cost table, radix buffers and sorted list; ~130 MiB at k=22).
// Above it the streaming scan is used.
const sortedMax = 22

// MinCost finds the minimum-cost hidden mask whose complementary visible set
// the oracle accepts, sharding the 2^k mask space over a worker pool.
//
// Candidates are explored in ascending (cost, lexicographic) order, so the
// first accepted candidate is the optimum and bounds everything after it;
// ties on cost are broken deterministically toward the hidden set that is
// lexicographically smallest as a sorted name sequence. Universes above
// sortedMax are scanned by cost bound instead, with the same tie-break.
func (s *Space) MinCost(oracle Oracle, opts Options) (Result, error) {
	return s.MinCostCtx(context.Background(), oracle, opts)
}

// MinCostCtx is MinCost with cancellation: every worker observes the context
// at each candidate mask (one pruning epoch), so the search stops promptly
// even when individual oracle calls are expensive — provided the oracle
// itself honours the same context, as the worlds-grounded oracles do. On
// expiry the partial result is discarded and ctx.Err() is returned.
//
// Cancellation is propagated through an atomic flag raised by a watcher
// goroutine rather than per-candidate ctx.Err() calls, which would serialize
// the worker pool on the context's mutex.
func (s *Space) MinCostCtx(ctx context.Context, oracle Oracle, opts Options) (Result, error) {
	var cancelled atomic.Bool
	if done := ctx.Done(); done != nil {
		quit := make(chan struct{})
		defer close(quit)
		go func() {
			select {
			case <-done:
				cancelled.Store(true)
			case <-quit:
			}
		}()
	}
	var res Result
	var err error
	if s.K() <= sortedMax {
		res, err = s.minCostSorted(oracle, opts, &cancelled)
	} else {
		res, err = s.minCostStreaming(oracle, opts, &cancelled)
	}
	if cancelled.Load() {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Result{Stats: res.Stats}, ctxErr
		}
	}
	return res, err
}

// orderedCostBits maps a float64 to a uint64 whose unsigned order matches
// the float order (the standard sign-flip transform), so costs radix-sort.
func orderedCostBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// lexMasks returns every mask of the universe in ascending lexLess order.
// The order is the preorder walk of the subset tree over name ranks, in
// which a node's children extend it by one rank above its maximum; the walk
// runs in rank space and maps each node back to universe bits through three
// byte tables. It is computed on the first search over the Space and
// cached.
func (s *Space) lexMasks() []Mask {
	s.lexOnce.Do(func() {
		k := s.K()
		var rankBit [MaxAttrs]Mask // universe bit of each name rank
		for i, p := range s.permBit {
			rankBit[bits.TrailingZeros32(uint32(p))] = 1 << i
		}
		var tab [MaxAttrs / 8][256]Mask
		for c := range tab {
			for b := 1; b < 256; b++ {
				tab[c][b] = tab[c][b&(b-1)] | rankBit[8*c+bits.TrailingZeros8(uint8(b))]
			}
		}
		out := make([]Mask, 1<<k)
		top := uint32(1) << k >> 1 // the largest rank's bit (0 when k = 0)
		var p uint32               // the current node, in rank space
		for i := range out {
			out[i] = tab[0][p&0xff] | tab[1][p>>8&0xff] | tab[2][p>>16]
			switch {
			case p == 0:
				p = 1 // the root's first child: the smallest rank
			case p&top == 0:
				p |= 1 << bits.Len32(p) // descend: add the next rank
			default:
				// A leaf: drop the largest rank, then move the new maximum
				// one rank up (the parent's next sibling).
				if p &^= top; p != 0 {
					h := uint32(1) << (bits.Len32(p) - 1)
					p = p&^h | h<<1
				}
			}
		}
		s.lex = out
	})
	return s.lex
}

// sortCandidates returns every hidden mask in ascending (cost, lexLess)
// order, plus the subset-sum cost table, without a comparison sort. The
// lex-order scatter (see lexMasks) realizes the lex order, and a
// stable LSD radix sort on the order-preserving cost bits lifts it to the
// full order. Only the span of key bits that differ between candidates is
// sorted, and each candidate travels as one word: up to keyBits of its key
// above the mask. A wider span is sorted by its top keyBits alone, which
// orders real-valued costs exactly unless two different costs agree on all
// of those bits; only then are the low bits sorted too, low bits first.
func (s *Space) sortCandidates() (masks []Mask, sums []float64) {
	n := 1 << s.K()
	sums = s.costSums()
	orAll, andAll := uint64(0), ^uint64(0)
	for _, c := range sums {
		k := orderedCostBits(c)
		orAll |= k
		andAll &= k
	}
	varying := orAll ^ andAll
	words, spare := make([]uint64, n), make([]uint64, n)
	for i, m := range s.lexMasks() {
		words[i] = uint64(m)
	}
	// round sorts the words stably by cost-key bits [lo, hi).
	round := func(lo, hi int) {
		for i, w := range words {
			key := orderedCostBits(sums[w&maskBits]) >> lo & (1<<(hi-lo) - 1)
			words[i] = key<<MaxAttrs | w&maskBits
		}
		words, spare = radixSort(words, spare, hi-lo, s.K())
	}
	lo, hi := bits.TrailingZeros64(varying), bits.Len64(varying)
	top := max(lo, hi-keyBits)
	if lo < hi {
		round(top, hi)
	}
	if top > lo && truncatedTies(words, sums) {
		round(lo, top)
		round(top, hi)
	}
	masks = make([]Mask, n)
	for i, w := range words {
		masks[i] = Mask(w & maskBits)
	}
	return masks, sums
}

// A candidate word carries its mask in the low MaxAttrs bits (maskBits) and
// up to keyBits of its cost key above them.
const (
	maskBits = 1<<MaxAttrs - 1
	keyBits  = 64 - MaxAttrs
)

// truncatedTies reports whether two neighbouring words carry the same key
// but different costs.
func truncatedTies(words []uint64, sums []float64) bool {
	for i := 1; i < len(words); i++ {
		if words[i]>>MaxAttrs == words[i-1]>>MaxAttrs && sums[words[i]&maskBits] != sums[words[i-1]&maskBits] {
			return true
		}
	}
	return false
}

// radixSort stably sorts words by their span-bit key above the mask bits,
// using spare as the second buffer, and returns the sorted slice and the
// other buffer. Digits are at most ~k-3 bits (8 to 16) wide and split
// evenly, so a pass never clears many more counters than it moves words;
// every digit histogram comes from one read of the keys, and a digit all
// words share is skipped.
func radixSort(words, spare []uint64, span, k int) (sorted, other []uint64) {
	maxWidth := min(max(k-3, 8), 16)
	passes := (span + maxWidth - 1) / maxWidth
	width := (span + passes - 1) / passes
	digit := uint64(1)<<width - 1
	cnt := make([]int32, passes<<width)
	for _, w := range words {
		key := w >> MaxAttrs
		for p := 0; p < passes; p++ {
			cnt[p<<width+int(key>>(p*width)&digit)]++
		}
	}
	for p := 0; p < passes; p++ {
		shift := MaxAttrs + p*width
		c := cnt[p<<width : (p+1)<<width]
		if int(c[words[0]>>shift&digit]) == len(words) {
			continue
		}
		sum := int32(0)
		for d, v := range c {
			c[d] = sum
			sum += v
		}
		for _, w := range words {
			d := w >> shift & digit
			spare[c[d]] = w
			c[d]++
		}
		words, spare = spare, words
	}
	return words, spare
}

// minCostSorted materializes all candidates in (cost, lex) order and
// strides workers over the sorted list. The answer is the lowest-index safe
// candidate; workers past the current best index stop wholesale. Per
// candidate it does one index-bound check and one oracle call.
func (s *Space) minCostSorted(oracle Oracle, opts Options, cancelled *atomic.Bool) (Result, error) {
	masks, sums := s.sortCandidates()
	n := len(masks)
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	all := s.All()
	var bestIdx atomic.Int64
	bestIdx.Store(int64(n)) // sentinel: nothing found
	var checked, pruned atomic.Int64
	var firstErr atomic.Value
	var failed atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var nChecked, nPruned int64
			defer func() {
				checked.Add(nChecked)
				pruned.Add(nPruned)
			}()
			for idx := w; idx < n; idx += workers {
				if failed.Load() || cancelled.Load() {
					return
				}
				if int64(idx) > bestIdx.Load() {
					// Everything at or after idx in this stride is beaten by
					// the incumbent's sort position; count and stop.
					nPruned += int64((n - idx + workers - 1) / workers)
					return
				}
				safe, err := oracle(all &^ masks[idx])
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					failed.Store(true)
					return
				}
				nChecked++
				if safe {
					lowerBest(&bestIdx, int64(idx))
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return Result{}, err
	}
	c := int(checked.Load())
	res := Result{Stats: Stats{Checked: c, Pruned: int(pruned.Load()), OraclePasses: c}}
	if idx := bestIdx.Load(); idx < int64(n) {
		res.Hidden = masks[idx]
		res.Cost = sums[masks[idx]]
		res.Found = true
	}
	return res, nil
}

// costSums builds the subset-sum table sums[m] = total cost of mask m by
// one-add-per-mask dynamic programming — much cheaper than a per-mask bit
// loop, at the price of 8 bytes per mask (only viable at k ≤ sortedMax).
func (s *Space) costSums() []float64 {
	n := 1 << s.K()
	sums := make([]float64, n)
	for m := 1; m < n; m++ {
		low := m & (m - 1)
		sums[m] = sums[low] + s.costs[bits.TrailingZeros32(uint32(m))]
	}
	return sums
}

// minCostStreaming scans the mask space in numeric order without the sorted
// candidate list (used above sortedMax, where the list would not fit in
// memory). Pruning uses a shared best-cost bound; each worker keeps its own
// incumbent and the results merge at the end with the same (cost, lex)
// tie-break.
func (s *Space) minCostStreaming(oracle Oracle, opts Options, cancelled *atomic.Bool) (Result, error) {
	n := 1 << s.K()
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	all := s.All()
	var bound atomicFloat
	bound.Store(math.Inf(1))
	var checked, pruned atomic.Int64
	var firstErr atomic.Value
	var failed atomic.Bool

	type incumbent struct {
		mask  Mask
		perm  Mask
		cost  float64
		found bool
	}
	bests := make([]incumbent, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best := &bests[w]
			// Masks are claimed in contiguous chunks (not a per-mask stride)
			// so the shared atomics — the cancellation flags, the cost bound
			// and the counters — are touched once per chunk instead of once
			// per mask. A stale (higher) bound read is sound: any value the
			// bound ever held is the cost of a known-feasible solution, so
			// masks strictly above it can never be optimal.
			const chunk = 4096
			var nChecked, nPruned int64
			defer func() {
				checked.Add(nChecked)
				pruned.Add(nPruned)
			}()
			for base := w * chunk; base < n; base += workers * chunk {
				if failed.Load() || cancelled.Load() {
					return
				}
				b := bound.Load()
				hi := min(base+chunk, n)
				for m := base; m < hi; m++ {
					hidden := Mask(m)
					// Strictly worse than the bound can never win; equal cost
					// stays in play for the lexicographic tie-break.
					cost := s.CostOf(hidden)
					if cost > b {
						nPruned++
						continue
					}
					safe, err := oracle(all &^ hidden)
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						failed.Store(true)
						return
					}
					nChecked++
					if safe {
						perm := s.perm(hidden)
						if !best.found || cost < best.cost ||
							(cost == best.cost && lexLess(perm, best.perm)) {
							*best = incumbent{mask: hidden, perm: perm, cost: cost, found: true}
							bound.StoreMin(cost)
						}
					}
					b = bound.Load()
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return Result{}, err
	}
	c := int(checked.Load())
	res := Result{Stats: Stats{Checked: c, Pruned: int(pruned.Load()), OraclePasses: c}}
	for _, b := range bests {
		if !b.found {
			continue
		}
		if !res.Found || b.cost < res.Cost ||
			(b.cost == res.Cost && lexLess(b.perm, s.perm(res.Hidden))) {
			res.Hidden = b.mask
			res.Cost = b.cost
			res.Found = true
		}
	}
	return res, nil
}

// NaiveMinCost is the reference 2^k loop the engine replaces (the Lemma 4 /
// Algorithm 2 brute force): numeric mask order, best-cost pruning only, no
// monotonicity, no parallelism. It is kept for property tests, benchmarks
// and the E20 experiment; its cost always matches MinCost's on a monotone
// oracle.
func (s *Space) NaiveMinCost(oracle Oracle) (Result, error) {
	n := 1 << s.K()
	all := s.All()
	res := Result{Cost: math.Inf(1)}
	for m := 0; m < n; m++ {
		hidden := Mask(m)
		cost := s.CostOf(hidden)
		if cost >= res.Cost {
			res.Stats.Pruned++
			continue
		}
		res.Stats.Checked++
		res.Stats.OraclePasses++
		safe, err := oracle(all &^ hidden)
		if err != nil {
			return Result{}, err
		}
		if safe {
			res.Hidden = hidden
			res.Cost = cost
			res.Found = true
		}
	}
	if !res.Found {
		res.Cost = 0
	}
	return res, nil
}

// lowerBest lowers the shared best index to idx if idx is smaller.
func lowerBest(best *atomic.Int64, idx int64) {
	for {
		cur := best.Load()
		if idx >= cur || best.CompareAndSwap(cur, idx) {
			return
		}
	}
}

// atomicFloat is a float64 with atomic load/store-min, used for the shared
// streaming best-cost bound.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// StoreMin lowers the value to v if v is smaller.
func (f *atomicFloat) StoreMin(v float64) {
	for {
		cur := f.bits.Load()
		if math.Float64frombits(cur) <= v || f.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}
