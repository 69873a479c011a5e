package search

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func testSpace(t *testing.T, attrs []string, costs map[string]float64) *Space {
	t.Helper()
	s, err := NewSpace(attrs, func(a string) float64 { return costs[a] })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace([]string{"a", "a"}, nil); err == nil {
		t.Error("duplicate attribute accepted")
	}
	big := make([]string, MaxAttrs+1)
	for i := range big {
		big[i] = fmt.Sprintf("a%d", i)
	}
	if _, err := NewSpace(big, nil); err == nil {
		t.Error("oversized universe accepted")
	}
	s, err := NewSpace(nil, nil)
	if err != nil || s.K() != 0 || s.All() != 0 {
		t.Errorf("empty universe: %v k=%d", err, s.K())
	}
}

func TestMaskConversions(t *testing.T) {
	s := testSpace(t, []string{"b", "a", "c"}, map[string]float64{"a": 1, "b": 2, "c": 4})
	m := s.MaskOf(s.NameSet(0b101)) // {b, c}
	if m != 0b101 {
		t.Errorf("roundtrip = %b, want 101", m)
	}
	if got := s.CostOf(0b101); got != 6 {
		t.Errorf("CostOf = %v, want 6", got)
	}
	if got := s.Names(0b110); got[0] != "a" || got[1] != "c" {
		t.Errorf("Names = %v", got)
	}
}

// TestLexLess pins the tie-break order: sets compare as ascending name
// sequences, so {a2} < {a2,a3} < {a3}.
func TestLexLess(t *testing.T) {
	// Universe deliberately NOT in name order: bit0=a3, bit1=a2, bit2=a1.
	s := testSpace(t, []string{"a3", "a2", "a1"}, nil)
	set := func(names ...string) Mask {
		var m Mask
		for _, n := range names {
			for i, a := range s.Attrs() {
				if a == n {
					m |= 1 << i
				}
			}
		}
		return m
	}
	cases := []struct {
		a, b []string
		less bool
	}{
		{[]string{"a2"}, []string{"a2", "a3"}, true}, // proper prefix wins
		{[]string{"a2", "a3"}, []string{"a2"}, false},
		{[]string{"a2", "a3"}, []string{"a3"}, true}, // first element decides
		{[]string{"a3"}, []string{"a2", "a3"}, false},
		{[]string{"a1"}, []string{"a2"}, true},
		{[]string{}, []string{"a1"}, true}, // empty set first
		{[]string{"a1"}, []string{"a1"}, false},
		{[]string{"a1", "a3"}, []string{"a1", "a2"}, false},
		{[]string{"a1", "a2"}, []string{"a1", "a3"}, true},
	}
	for _, c := range cases {
		if got := s.LexLess(set(c.a...), set(c.b...)); got != c.less {
			t.Errorf("LexLess(%v, %v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

// monotoneOracle builds a random monotone safety predicate: a visible set is
// safe iff its total weight stays under a threshold (subsets of safe sets are
// then safe, exactly Proposition 1's shape).
func monotoneOracle(s *Space, rng *rand.Rand) Oracle {
	weights := make([]float64, s.K())
	total := 0.0
	for i := range weights {
		weights[i] = float64(rng.Intn(4))
		total += weights[i]
	}
	threshold := rng.Float64() * total
	return func(v Mask) (bool, error) {
		sum := 0.0
		for x := v; x != 0; x &= x - 1 {
			sum += weights[bits.TrailingZeros32(uint32(x))]
		}
		return sum <= threshold, nil
	}
}

func randomCosts(attrs []string, rng *rand.Rand) map[string]float64 {
	costs := make(map[string]float64, len(attrs))
	for _, a := range attrs {
		costs[a] = float64(rng.Intn(3)) // integer costs with zeros force ties
	}
	return costs
}

// TestMinCostMatchesNaive is the engine's core property test: on random
// monotone oracles the pruned parallel search finds the same optimal cost as
// the naive 2^k loop, and its tie-break returns the lexicographically
// smallest optimal hidden set.
func TestMinCostMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(10)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", k-i) // reverse name order vs bits
		}
		s := testSpace(t, attrs, randomCosts(attrs, rng))
		oracle := monotoneOracle(s, rng)
		naive, err := s.NaiveMinCost(oracle)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := s.MinCost(oracle, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got.Found != naive.Found {
				t.Fatalf("trial %d par %d: Found=%v, naive %v", trial, par, got.Found, naive.Found)
			}
			if !got.Found {
				continue
			}
			if got.Cost != naive.Cost {
				t.Fatalf("trial %d par %d: cost %v, naive %v", trial, par, got.Cost, naive.Cost)
			}
			// The winner must be the lex-smallest optimum, verified by scan.
			want := Mask(0)
			haveWant := false
			for m := 0; m < 1<<k; m++ {
				if s.CostOf(Mask(m)) != naive.Cost {
					continue
				}
				safe, _ := oracle(s.All() &^ Mask(m))
				if !safe {
					continue
				}
				if !haveWant || s.LexLess(Mask(m), want) {
					want = Mask(m)
					haveWant = true
				}
			}
			if !haveWant || got.Hidden != want {
				t.Fatalf("trial %d par %d: hidden %s, want lex-min %s",
					trial, par, s.NameSet(got.Hidden), s.NameSet(want))
			}
			if got.Stats.Checked+got.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d: Checked %d + Pruned %d != %d",
					trial, got.Stats.Checked, got.Stats.Pruned, 1<<k)
			}
		}
	}
}

// TestStreamingMatchesSortedAndNaive covers the streaming MinCost path
// directly (MinCost dispatches to it cold only above sortedMax, which no
// practical-size test reaches): on random monotone oracles, at 1 and 4
// workers, it must agree with the sorted path and the naive loop on
// found/cost AND on the lexicographic tie-break, and both scans keep the
// Checked+Pruned=2^k invariant.
func TestStreamingMatchesSortedAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(9)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", k-i) // reverse name order vs bits
		}
		s := testSpace(t, attrs, randomCosts(attrs, rng))
		oracle := monotoneOracle(s, rng)
		naive, err := s.NaiveMinCost(oracle)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			sorted, err := s.minCostSorted(oracle, Options{Parallelism: par}, new(atomic.Bool))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := s.minCostStreaming(oracle, Options{Parallelism: par}, new(atomic.Bool))
			if err != nil {
				t.Fatal(err)
			}
			if sorted.Found != naive.Found || sorted.Stats.Checked+sorted.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d par %d: sorted Found=%v (naive %v), Checked %d + Pruned %d != %d",
					trial, par, sorted.Found, naive.Found, sorted.Stats.Checked, sorted.Stats.Pruned, 1<<k)
			}
			if stream.Found != naive.Found {
				t.Fatalf("trial %d par %d: streaming Found=%v, naive %v", trial, par, stream.Found, naive.Found)
			}
			if !stream.Found {
				continue
			}
			if stream.Cost != naive.Cost {
				t.Fatalf("trial %d par %d: streaming cost %v, naive %v", trial, par, stream.Cost, naive.Cost)
			}
			if stream.Hidden != sorted.Hidden {
				t.Fatalf("trial %d par %d: streaming tie-break %s, sorted %s",
					trial, par, s.NameSet(stream.Hidden), s.NameSet(sorted.Hidden))
			}
			if stream.Stats.Checked+stream.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d par %d: streaming Checked %d + Pruned %d != %d",
					trial, par, stream.Stats.Checked, stream.Stats.Pruned, 1<<k)
			}
		}
	}
}

// TestCheckedCountsOracleCalls pins the Stats.Checked contract: it counts
// safety tests actually performed, nothing else, and each test is one
// oracle call (OraclePasses == Checked == calls) — on the sorted and
// streaming scans, at 1 and 4 workers.
func TestCheckedCountsOracleCalls(t *testing.T) {
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	s := testSpace(t, attrs, map[string]float64{"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 3})
	var calls atomic.Int64
	oracle := func(v Mask) (bool, error) {
		calls.Add(1)
		return bits.OnesCount32(uint32(v)) <= 3, nil
	}
	for _, par := range []int{1, 4} {
		scans := []struct {
			name string
			run  func() (Result, error)
		}{
			{"sorted", func() (Result, error) {
				return s.minCostSorted(oracle, Options{Parallelism: par}, new(atomic.Bool))
			}},
			{"streaming", func() (Result, error) {
				return s.minCostStreaming(oracle, Options{Parallelism: par}, new(atomic.Bool))
			}},
		}
		for _, sc := range scans {
			calls.Store(0)
			res, err := sc.run()
			if err != nil || !res.Found {
				t.Fatalf("%s par=%d: err=%v found=%v", sc.name, par, err, res.Found)
			}
			st := res.Stats
			if int64(st.Checked) != calls.Load() || st.OraclePasses != st.Checked {
				t.Errorf("%s par=%d: Checked = %d, OraclePasses = %d, oracle calls = %d",
					sc.name, par, st.Checked, st.OraclePasses, calls.Load())
			}
			if st.Checked+st.Pruned != 1<<len(attrs) {
				t.Errorf("%s par=%d: Checked+Pruned = %d, want %d", sc.name, par, st.Checked+st.Pruned, 1<<len(attrs))
			}
			if st.Checked == 0 || st.Checked == 1<<len(attrs) {
				t.Errorf("%s par=%d: Checked = %d, want some tests and some pruning", sc.name, par, st.Checked)
			}
		}
	}

	calls.Store(0)
	naive, err := s.NaiveMinCost(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if int64(naive.Stats.Checked) != calls.Load() {
		t.Errorf("naive Checked = %d, oracle calls = %d", naive.Stats.Checked, calls.Load())
	}
	if naive.Stats.Checked+naive.Stats.Pruned != 1<<len(attrs) {
		t.Errorf("naive Checked+Pruned = %d, want %d", naive.Stats.Checked+naive.Stats.Pruned, 1<<len(attrs))
	}
}

func TestMinCostNotFound(t *testing.T) {
	s := testSpace(t, []string{"a", "b"}, nil)
	res, err := s.MinCost(func(Mask) (bool, error) { return false, nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Cost != 0 {
		t.Errorf("unsatisfiable search: Found=%v Cost=%v", res.Found, res.Cost)
	}
}

func TestMinCostError(t *testing.T) {
	s := testSpace(t, []string{"a", "b", "c"}, nil)
	boom := errors.New("boom")
	_, err := s.MinCost(func(Mask) (bool, error) { return false, boom }, Options{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
	_, _, err = s.MinimalSafeHidden(func(Mask) (bool, error) { return false, boom }, Options{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Errorf("MinimalSafeHidden error not propagated: %v", err)
	}
}

// bruteMinimalSafeHidden is the seed repo's original algorithm, kept as the
// reference for the level sweep.
func bruteMinimalSafeHidden(s *Space, oracle Oracle) []Mask {
	k := s.K()
	var minimal []Mask
	for size := 0; size <= k; size++ {
		for m := 0; m < 1<<k; m++ {
			if bits.OnesCount32(uint32(m)) != size {
				continue
			}
			dominated := false
			for _, mm := range minimal {
				if mm&Mask(m) == mm {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			if safe, _ := oracle(s.All() &^ Mask(m)); safe {
				minimal = append(minimal, Mask(m))
			}
		}
	}
	return minimal
}

func TestMinimalSafeHiddenMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(9)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		s := testSpace(t, attrs, nil)
		oracle := monotoneOracle(s, rng)
		want := bruteMinimalSafeHidden(s, oracle)
		var calls atomic.Int64
		counted := func(v Mask) (bool, error) { calls.Add(1); return oracle(v) }
		got, stats, err := s.MinimalSafeHidden(counted, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d minimal sets, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%b want %b", trial, i, got[i], want[i])
			}
		}
		if int64(stats.Checked) != calls.Load() || stats.Checked+stats.Pruned != 1<<k {
			t.Fatalf("trial %d: stats %+v, calls %d", trial, stats, calls.Load())
		}
	}
}

func TestSetDefaultParallelism(t *testing.T) {
	defer SetDefaultParallelism(0)
	SetDefaultParallelism(3)
	if got := (Options{}).workers(); got != 3 {
		t.Errorf("default workers = %d, want 3", got)
	}
	if got := (Options{Parallelism: 2}).workers(); got != 2 {
		t.Errorf("explicit workers = %d, want 2", got)
	}
	SetDefaultParallelism(0)
	if got := (Options{}).workers(); got < 1 {
		t.Errorf("GOMAXPROCS default = %d", got)
	}
}

// TestPrunedBeatsNaiveOnChecks demonstrates the engine's point: when safety
// hinges on hiding output attributes (which sit on the high mask bits, as in
// ModuleView.Attrs), the naive numeric scan burns safety tests on a huge
// prefix of the space while cost-ordered exploration with the best-index
// bound gets there in a handful.
func TestPrunedBeatsNaiveOnChecks(t *testing.T) {
	k := 12
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%02d", i)
	}
	costs := map[string]float64{}
	for _, a := range attrs {
		costs[a] = 1
	}
	s := testSpace(t, attrs, costs)
	// Safe iff at least 2 of the LAST 4 attributes are hidden.
	top := Mask(0b1111) << (k - 4)
	oracle := func(v Mask) (bool, error) {
		return bits.OnesCount32(uint32(v&top)) <= 2, nil
	}
	naive, err := s.NaiveMinCost(oracle)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := s.MinCost(oracle, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cost != naive.Cost || !pruned.Found {
		t.Fatalf("cost mismatch: %v vs %v", pruned.Cost, naive.Cost)
	}
	if pruned.Stats.Checked*4 > naive.Stats.Checked {
		t.Errorf("engine checked %d, naive %d — expected ≥4× fewer tests",
			pruned.Stats.Checked, naive.Stats.Checked)
	}
	if math.IsInf(pruned.Cost, 1) {
		t.Error("cost not materialized")
	}
}

// lexRank maps a name-sorted (permuted) mask to its preorder index in the
// lexLess order over a k-bit universe: lexLess(x, y) ⟺ lexRank(x) <
// lexRank(y). The order is the preorder walk of the subset tree in which a
// node's children extend it with one element larger than its maximum, so
// rank(S) for S = {s1 < ... < sm} adds, per element, 1 (the node itself)
// plus the sizes 2^(k-t) of the earlier-sibling subtrees skipped. It is the
// closed form of the walk newOrder's scatter runs, kept here as a second
// reference.
func lexRank(perm Mask, k int) uint32 {
	var rank uint32
	prev := 0 // last element rank consumed
	for x := perm; x != 0; x &= x - 1 {
		j := bits.TrailingZeros32(uint32(x)) + 1
		rank += uint32(1 + (1<<(k-prev) - 1<<(k-j+1)))
		prev = j
	}
	return rank
}

// TestLexRankMatchesLexLess pins lexRank as a monotone embedding of the
// lexLess order: exhaustive pairwise check on a small universe, randomized
// on a large one. TestSortCandidatesOrder's all-zero model checks the walk
// against it.
func TestLexRankMatchesLexLess(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6, 10} {
		n := 1 << k
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				want := lexLess(Mask(x), Mask(y))
				got := lexRank(Mask(x), k) < lexRank(Mask(y), k)
				if got != want {
					t.Fatalf("k=%d x=%b y=%b: lexRank order %v, lexLess %v", k, x, y, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	const k = 24
	for trial := 0; trial < 200000; trial++ {
		x, y := Mask(rng.Intn(1<<k)), Mask(rng.Intn(1<<k))
		if lexLess(x, y) != (lexRank(x, k) < lexRank(y, k)) {
			t.Fatalf("k=%d x=%b y=%b: lexRank disagrees with lexLess", k, x, y)
		}
	}
}

// TestSortCandidatesOrder checks the lazily finished candidate order against
// a comparison sort by (cost, LexLess) over every mask, for k = 0…16 over
// shuffled names, finishing it in random-size steps and reusing pooled
// buffers. Each mask's cost must carry costSums' bits. The cost models take
// each path: all zero (one bucket in pure lex order, so each mask must also
// sit at its lexRank), all equal (a bucket per popcount, already ascending),
// small integers and zeros (buckets of equal costs), reals (small buckets,
// insertion-sorted), reals from a few values (long runs of exact ties),
// reals beside one huge cost (two buckets of half the masks each, split over
// their own cost ranges), and subnormals (a cost range too narrow to scale
// to the bucket count).
func TestSortCandidatesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []struct {
		name string
		cost func(i int) float64
	}{
		{"zero", func(int) float64 { return 0 }},
		{"equal", func(int) float64 { return 2 }},
		{"ints", func(int) float64 { return float64(rng.Intn(4)) }},
		{"reals", func(int) float64 { return 1 + rng.Float64()*4 }},
		{"repeated", func(int) float64 { return []float64{0.1, 0.7, 2.3}[rng.Intn(3)] }},
		{"outlier", func(i int) float64 {
			if i == 0 {
				return 1e15
			}
			return 1 + rng.Float64()*4
		}},
		{"subnormal", func(int) float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)) }},
	}
	for _, model := range models {
		for k := 0; k <= 16; k++ {
			attrs := make([]string, k)
			costs := make(map[string]float64, k)
			for i := range attrs {
				attrs[i] = fmt.Sprintf("a%02d", i)
				costs[attrs[i]] = model.cost(i)
			}
			rng.Shuffle(k, func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
			s := testSpace(t, attrs, costs)
			o := s.newOrder()
			for o.done < 1<<k {
				before := o.done
				if o.finish(o.done + 1 + rng.Intn(300)); o.done == before {
					t.Fatalf("%s k=%d: finish stalled at %d of %d masks", model.name, k, o.done, 1<<k)
				}
			}
			sums := make([]float64, 1<<k)
			s.costSums(sums)
			want := make([]Mask, 1<<k)
			for m := range want {
				want[m] = Mask(m)
			}
			slices.SortFunc(want, func(a, b Mask) int {
				if c := cmp.Compare(sums[a], sums[b]); c != 0 {
					return c
				}
				switch {
				case s.LexLess(a, b):
					return -1
				case s.LexLess(b, a):
					return 1
				}
				return 0
			})
			if !slices.Equal(o.masks, want) {
				t.Fatalf("%s k=%d attrs=%v: order differs from the (cost, lex) sort", model.name, k, attrs)
			}
			for i, m := range o.masks {
				if math.Float64bits(o.sums[m]) != math.Float64bits(sums[m]) {
					t.Fatalf("%s k=%d: mask %b costs %v, costSums %v", model.name, k, m, o.sums[m], sums[m])
				}
				if model.name == "zero" && lexRank(s.perm(m), k) != uint32(i) {
					t.Fatalf("k=%d attrs=%v: mask %b at position %d, lexRank %d", k, attrs, m, i, lexRank(s.perm(m), k))
				}
			}
			orderPool[k].Put(o)
		}
	}
}

// TestMinCostWorkers runs the sorted scan at 2 and 4 workers on random
// monotone oracles: every answer equals the single-worker one in hidden set
// and cost bits, Checked + Pruned covers the space, and Checked counts the
// oracle calls. A context cancelled mid-scan returns its error at any
// worker count, without scanning the whole space.
func TestMinCostWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(15)
		attrs := make([]string, k)
		costs := make(map[string]float64, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", k-i)
			costs[attrs[i]] = float64(rng.Intn(3))
			if trial%2 == 0 {
				costs[attrs[i]] = 1 + rng.Float64()*4
			}
		}
		s := testSpace(t, attrs, costs)
		oracle := monotoneOracle(s, rng)
		one, err := s.MinCost(oracle, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4} {
			var calls atomic.Int64
			counted := func(v Mask) (bool, error) { calls.Add(1); return oracle(v) }
			got, err := s.MinCost(counted, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got.Found != one.Found || got.Hidden != one.Hidden || math.Float64bits(got.Cost) != math.Float64bits(one.Cost) {
				t.Fatalf("trial %d k=%d par %d: (%v, %b, %v), single worker (%v, %b, %v)",
					trial, k, par, got.Found, got.Hidden, got.Cost, one.Found, one.Hidden, one.Cost)
			}
			if st := got.Stats; st.Checked+st.Pruned != 1<<k || int64(st.Checked) != calls.Load() {
				t.Fatalf("trial %d k=%d par %d: Checked %d + Pruned %d, want %d; oracle calls %d",
					trial, k, par, st.Checked, st.Pruned, 1<<k, calls.Load())
			}
		}
	}

	const k = 14
	attrs := make([]string, k)
	costs := make(map[string]float64, k)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%02d", i)
		costs[attrs[i]] = 1 + rng.Float64()*4
	}
	s := testSpace(t, attrs, costs)
	for _, par := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		never := func(Mask) (bool, error) {
			if calls.Add(1) >= 100 {
				cancel()
				time.Sleep(20 * time.Microsecond) // let the watcher raise the flag
			}
			return false, nil
		}
		_, err := s.MinCostCtx(ctx, never, Options{Parallelism: par})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d: err = %v, want context.Canceled", par, err)
		}
		if calls.Load() >= 1<<k {
			t.Fatalf("par %d: the cancelled scan tested all %d candidates", par, calls.Load())
		}
	}
}

// BenchmarkSkewedCosts times a single-worker MinCost when one attribute
// costs 1e15 and the rest are reals in [1, 5), so half the masks share the
// bottom of the cost range and half the top. The oracle accepts exactly the
// hidden supersets of the candidate at 30% or 90% of the (cost, lex) order,
// so the scan stops there.
func BenchmarkSkewedCosts(b *testing.B) {
	for _, k := range []int{14, 18} {
		rng := rand.New(rand.NewSource(int64(k)))
		attrs := make([]string, k)
		costs := make(map[string]float64, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", i)
			costs[attrs[i]] = 1 + rng.Float64()*4
		}
		costs[attrs[k/2]] = 1e15
		s, err := NewSpace(attrs, func(a string) float64 { return costs[a] })
		if err != nil {
			b.Fatal(err)
		}
		cost := make([]float64, 1<<k)
		order := make([]Mask, 1<<k)
		for m := range order {
			order[m], cost[m] = Mask(m), s.CostOf(Mask(m))
		}
		slices.SortFunc(order, func(x, y Mask) int {
			if c := cmp.Compare(cost[x], cost[y]); c != 0 {
				return c
			}
			if s.LexLess(x, y) {
				return -1
			}
			return 1
		})
		for _, at := range []int{30, 90} {
			target, all := order[len(order)*at/100], s.All()
			oracle := func(v Mask) (bool, error) { return all&^v&target == target, nil }
			b.Run(fmt.Sprintf("k=%d/at=%d%%", k, at), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.MinCost(oracle, Options{Parallelism: 1})
					if err != nil || res.Hidden != target {
						b.Fatalf("err=%v hidden=%b, want %b", err, res.Hidden, target)
					}
				}
			})
		}
	}
}
