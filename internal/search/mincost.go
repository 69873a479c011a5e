package search

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
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

// sortedMax is the largest universe for which MinCost scans candidates in
// (cost, lex) order (~14 bytes per mask: the subset-sum cost table, the
// candidate list and its bucket bounds; ~56 MiB at k=22). Above it the
// streaming scan is used.
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

// smallBucket is the largest cost bucket the order sorts by insertion; a
// larger one whose costs do not already ascend is split (order.settle).
const smallBucket = 16

// stretch is how far per worker the scan finishes the order ahead.
const stretch = 64

// order is one search's candidates in ascending (cost, lexLess) order,
// finished only as far as the scan reads it. masks[:done] is in final
// order. The rest is a run of cost buckets in which every cost is below
// every cost of the next bucket, and each bucket lists its masks in lex
// order. ends is a stack of the pending buckets' end positions, the next
// bucket's on top, so the next bucket is masks[done:ends[len(ends)-1]].
type order struct {
	sums  []float64 // sums[m] is mask m's cost (costSums)
	masks []Mask
	ends  []int32
	spare []Mask // the bucket being split
	done  int
}

// orderPool keeps one order's buffers per universe size across searches.
var orderPool [sortedMax + 1]sync.Pool

// newOrder fills the cost table and scatters every mask into one of
// B = 2^k/2 buckets by ⌊cost·B/cost(all)⌋, clamped. Multiplying by a
// positive constant and truncating both preserve ≤, so equal costs share a
// bucket and a lower bucket holds only lower costs. No mask costs more than
// the full one (costSums adds each mask's costs in the full mask's order,
// and dropping a non-negative term never raises a rounded sum), so the
// clamp only catches rounding. A total of 0, or one too small or large to
// scale, makes one bucket.
//
// The scatter walks the masks in lexLess order, so each bucket starts out
// lex-ordered: the preorder of the subset tree over name ranks, in which a
// node's children extend it by one rank above its maximum, run in rank
// space and mapped back to universe bits through three byte tables.
func (s *Space) newOrder() *order {
	k := s.K()
	n := 1 << k
	o, _ := orderPool[k].Get().(*order)
	if o == nil {
		o = &order{sums: make([]float64, n), masks: make([]Mask, n)}
	}
	o.done, o.ends = 0, o.ends[:0]
	s.costSums(o.sums)
	nb := max(n/2, 1)
	scale := float64(nb) / o.sums[n-1]
	if !(scale > 0 && scale <= math.MaxFloat64) {
		nb, scale = 1, 0
	}
	top := nb - 1
	ends := o.push(nb)
	for _, c := range o.sums {
		ends[top-bucket(c, 0, scale, top)]++
	}
	starts(ends, 0)

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
	last := uint32(1) << k >> 1 // the largest rank's bit (0 when k = 0)
	var p uint32                // the current node, in rank space
	for range n {
		m := tab[0][p&0xff] | tab[1][p>>8&0xff] | tab[2][p>>16]
		r := top - bucket(o.sums[m], 0, scale, top)
		o.masks[ends[r]] = m
		ends[r]++
		switch {
		case p == 0:
			p = 1 // the root's first child: the smallest rank
		case p&last == 0:
			p |= 1 << bits.Len32(p) // descend: add the next rank
		default:
			// A leaf: drop the largest rank, then move the new maximum
			// one rank up (the parent's next sibling).
			if p &^= last; p != 0 {
				h := uint32(1) << (bits.Len32(p) - 1)
				p = p&^h | h<<1
			}
		}
	}
	return o
}

// bucket returns ⌊(c−lo)·scale⌋ clamped to [0, top].
func bucket(c, lo, scale float64, top int) int {
	q := (c - lo) * scale
	if q >= float64(top) {
		return top
	}
	if q > 0 {
		return int(q)
	}
	return 0
}

// push adds nb zeroed bucket counters to the stack, bucket j at index
// nb−1−j, so that after starts and a scatter the first bucket's end is on top.
func (o *order) push(nb int) []int32 {
	base := len(o.ends)
	o.ends = append(o.ends, make([]int32, nb)...)
	return o.ends[base:]
}

// starts turns pushed counts into start positions from base; a scatter
// that advances each bucket's counter leaves its end.
func starts(ends []int32, base int) {
	pos := int32(base)
	for r := len(ends) - 1; r >= 0; r-- {
		c := ends[r]
		ends[r] = pos
		pos += c
	}
}

// finish settles buckets until at least target masks, or all, are final.
func (o *order) finish(target int) {
	for o.done < target && len(o.ends) > 0 {
		end := int(o.ends[len(o.ends)-1])
		o.ends = o.ends[:len(o.ends)-1]
		o.settle(o.masks[o.done:end])
	}
}

// settle finishes the next bucket, b: it insertion-sorts a small one, keeps
// a larger one whose costs already ascend, and otherwise splits it into
// len(b)/2 buckets by ⌊(cost−lo)·B/(hi−lo)⌋ over its own cost range. That
// index is monotone like newOrder's and puts lo and hi apart, so every
// split makes progress however skewed the costs.
func (o *order) settle(b []Mask) {
	sums := o.sums
	if len(b) <= smallBucket {
		var cs [smallBucket]float64 // b's costs, read from the table once
		for i, m := range b {
			cs[i] = sums[m]
		}
		for i := 1; i < len(b); i++ {
			m, c := b[i], cs[i]
			j := i
			for ; j > 0 && cs[j-1] > c; j-- {
				b[j], cs[j] = b[j-1], cs[j-1]
			}
			b[j], cs[j] = m, c
		}
		o.done += len(b)
		return
	}
	lo, hi, ascending := sums[b[0]], sums[b[0]], true
	for i, m := range b[1:] {
		c := sums[m]
		ascending = ascending && c >= sums[b[i]]
		lo, hi = min(lo, c), max(hi, c)
	}
	if ascending {
		o.done += len(b)
		return
	}
	nb := len(b) / 2
	scale := float64(nb) / (hi - lo)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		// A cost range too narrow (subnormal) or wide (infinite) to scale.
		slices.SortStableFunc(b, func(x, y Mask) int { return cmp.Compare(sums[x], sums[y]) })
		o.done += len(b)
		return
	}
	top := nb - 1
	ends := o.push(nb)
	for _, m := range b {
		ends[top-bucket(sums[m], lo, scale, top)]++
	}
	starts(ends, o.done)
	o.spare = append(o.spare[:0], b...)
	for _, m := range o.spare {
		r := top - bucket(sums[m], lo, scale, top)
		o.masks[ends[r]] = m
		ends[r]++
	}
}

// minCostSorted strides workers over the candidates in (cost, lex) order,
// finishing the order a stretch ahead of the scan. The answer is the
// lowest-index safe candidate; workers past the current best index stop
// wholesale. Per candidate it does one index-bound check and one oracle
// call.
func (s *Space) minCostSorted(oracle Oracle, opts Options, cancelled *atomic.Bool) (Result, error) {
	o := s.newOrder()
	defer orderPool[s.K()].Put(o)
	n := len(o.masks)
	workers := min(opts.workers(), n)
	all := s.All()
	var bestIdx atomic.Int64
	bestIdx.Store(int64(n)) // sentinel: nothing found
	var ready atomic.Int64  // o.masks[:ready] is final; a worker reaching it finishes more under mu
	var mu sync.Mutex
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
				if int64(idx) >= ready.Load() {
					mu.Lock()
					o.finish(idx + stretch*workers)
					ready.Store(int64(o.done))
					mu.Unlock()
				}
				safe, err := oracle(all &^ o.masks[idx])
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
		res.Hidden = o.masks[idx]
		res.Cost = o.sums[res.Hidden]
		res.Found = true
	}
	return res, nil
}

// costSums fills the subset-sum table sums[m] = total cost of mask m by
// one-add-per-mask dynamic programming — much cheaper than a per-mask bit
// loop, at the price of 8 bytes per mask (only viable at k ≤ sortedMax).
// Each mask's costs are added from its highest attribute down.
func (s *Space) costSums(sums []float64) {
	for m := 1; m < len(sums); m++ {
		low := m & (m - 1)
		sums[m] = sums[low] + s.costs[bits.TrailingZeros32(uint32(m))]
	}
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
