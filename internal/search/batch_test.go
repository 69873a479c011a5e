package search

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"
)

// countingBatch wraps an oracle as a BatchOracle that records pass count
// and the largest batch it answered.
func countingBatch(oracle Oracle) (BatchOracle, *atomic.Int64, *atomic.Int64) {
	var passes, maxLen atomic.Int64
	inner := Batched(oracle)
	return func(visible []Mask) ([]bool, error) {
		passes.Add(1)
		raiseMax(&maxLen, int64(len(visible)))
		return inner(visible)
	}, &passes, &maxLen
}

// TestBatchedMatchesUnbatched: on random monotone oracles, MinCost with a
// batch oracle must return a byte-identical Result (Found/Hidden/Cost) and
// keep Checked+Pruned = 2^k, for several batch sizes and both code paths.
func TestBatchedMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(10)
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%02d", k-i)
		}
		s := testSpace(t, attrs, randomCosts(attrs, rng))
		oracle := monotoneOracle(s, rng)
		plain, err := s.MinCost(oracle, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{0, 1, 2, 7, 64} {
			for _, par := range []int{1, 3} {
				batch, passes, maxLen := countingBatch(oracle)
				opts := Options{Parallelism: par, Batch: batch, BatchSize: bs}
				sorted, err := s.minCostSorted(oracle, opts, new(atomic.Bool))
				if err != nil {
					t.Fatal(err)
				}
				if sorted.Found != plain.Found || sorted.Hidden != plain.Hidden || sorted.Cost != plain.Cost {
					t.Fatalf("trial %d bs=%d par=%d: batched sorted (found=%v hidden=%b cost=%g) != plain (found=%v hidden=%b cost=%g)",
						trial, bs, par, sorted.Found, sorted.Hidden, sorted.Cost, plain.Found, plain.Hidden, plain.Cost)
				}
				if sorted.Stats.Checked+sorted.Stats.Pruned != 1<<k {
					t.Fatalf("trial %d bs=%d par=%d: Checked %d + Pruned %d != %d",
						trial, bs, par, sorted.Stats.Checked, sorted.Stats.Pruned, 1<<k)
				}
				// Stats must reflect the real oracle traffic. Single-mask
				// flushes bypass Batch, so engine passes can exceed the
				// wrapper's count but never undercount it.
				if sorted.Stats.OraclePasses < int(passes.Load()) {
					t.Fatalf("trial %d bs=%d par=%d: OraclePasses %d < batch calls %d",
						trial, bs, par, sorted.Stats.OraclePasses, passes.Load())
				}
				if int64(sorted.Stats.BatchSize) < maxLen.Load() {
					t.Fatalf("trial %d bs=%d par=%d: BatchSize %d < observed %d",
						trial, bs, par, sorted.Stats.BatchSize, maxLen.Load())
				}

				batch2, _, _ := countingBatch(oracle)
				stream, err := s.minCostStreaming(oracle, Options{Parallelism: par, Batch: batch2, BatchSize: bs}, new(atomic.Bool))
				if err != nil {
					t.Fatal(err)
				}
				if stream.Found != plain.Found || stream.Hidden != plain.Hidden || stream.Cost != plain.Cost {
					t.Fatalf("trial %d bs=%d par=%d: batched streaming (found=%v hidden=%b cost=%g) != plain (found=%v hidden=%b cost=%g)",
						trial, bs, par, stream.Found, stream.Hidden, stream.Cost, plain.Found, plain.Hidden, plain.Cost)
				}
				if stream.Stats.Checked+stream.Stats.Pruned != 1<<k {
					t.Fatalf("trial %d bs=%d par=%d: streaming Checked %d + Pruned %d != %d",
						trial, bs, par, stream.Stats.Checked, stream.Stats.Pruned, 1<<k)
				}
			}
		}
	}
}

// TestBatchOracleErrors: a failing or short-answering batch oracle must
// surface as an error, not a wrong result.
func TestBatchOracleErrors(t *testing.T) {
	attrs := []string{"a", "b", "c", "d", "e"}
	s := testSpace(t, attrs, map[string]float64{"a": 1, "b": 1, "c": 1, "d": 1, "e": 1})
	oracle := func(v Mask) (bool, error) { return bits.OnesCount32(uint32(v)) <= 1, nil }

	boom := errors.New("boom")
	_, err := s.MinCost(oracle, Options{
		Parallelism: 2,
		Batch:       func(visible []Mask) ([]bool, error) { return nil, boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing batch oracle: err = %v, want %v", err, boom)
	}

	_, err = s.MinCost(oracle, Options{
		Parallelism: 2,
		Batch:       func(visible []Mask) ([]bool, error) { return make([]bool, len(visible)/2), nil },
	})
	if err == nil {
		t.Fatal("short batch answer accepted")
	}
}

// symmetricSetup builds a space plus a monotone oracle whose weights are
// shared within randomly chosen attribute groups, and returns the groups of
// size >= 2 that also share a cost — exactly the classes Options.Symmetry
// accepts.
func symmetricSetup(t *testing.T, rng *rand.Rand, k int) (*Space, Oracle, [][]int) {
	t.Helper()
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%02d", k-i) // reverse name order vs bits
	}
	groupOf := make([]int, k)
	nGroups := 1 + rng.Intn(3)
	for i := range groupOf {
		groupOf[i] = rng.Intn(nGroups)
	}
	weights := make([]float64, nGroups)
	costs := make(map[string]float64, k)
	groupCost := make([]float64, nGroups)
	for g := range weights {
		weights[g] = float64(rng.Intn(4))
		groupCost[g] = float64(rng.Intn(3))
	}
	total := 0.0
	for i, a := range attrs {
		costs[a] = groupCost[groupOf[i]]
		total += weights[groupOf[i]]
	}
	threshold := rng.Float64() * total
	s := testSpace(t, attrs, costs)
	oracle := func(v Mask) (bool, error) {
		sum := 0.0
		for x := v; x != 0; x &= x - 1 {
			sum += weights[groupOf[bits.TrailingZeros32(uint32(x))]]
		}
		return sum <= threshold, nil
	}
	classes := make([][]int, nGroups)
	for i, g := range groupOf {
		classes[g] = append(classes[g], i)
	}
	var out [][]int
	for _, cl := range classes {
		if len(cl) >= 2 {
			out = append(out, cl)
		}
	}
	return s, oracle, out
}

// TestSymmetryMatchesUnrestricted is the collapse soundness test: with
// genuinely interchangeable equal-cost classes, the symmetry-restricted
// search must return a byte-identical Result on both code paths while
// keeping the Checked+Pruned = 2^k accounting.
func TestSymmetryMatchesUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	sawClass := false
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(9)
		s, oracle, classes := symmetricSetup(t, rng, k)
		if len(classes) > 0 {
			sawClass = true
		}
		plain, err := s.MinCost(oracle, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			opts := Options{Parallelism: par, Symmetry: classes}
			sorted, err := s.minCostSorted(oracle, opts, new(atomic.Bool))
			if err != nil {
				t.Fatal(err)
			}
			if sorted.Found != plain.Found || sorted.Hidden != plain.Hidden || sorted.Cost != plain.Cost {
				t.Fatalf("trial %d par %d classes %v: symmetric sorted (found=%v hidden=%b cost=%g) != plain (found=%v hidden=%b cost=%g)",
					trial, par, classes, sorted.Found, sorted.Hidden, sorted.Cost, plain.Found, plain.Hidden, plain.Cost)
			}
			if sorted.Stats.Checked+sorted.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d par %d: symmetric Checked %d + Pruned %d != %d",
					trial, par, sorted.Stats.Checked, sorted.Stats.Pruned, 1<<k)
			}
			stream, err := s.minCostStreaming(oracle, opts, new(atomic.Bool))
			if err != nil {
				t.Fatal(err)
			}
			if stream.Found != plain.Found || stream.Hidden != plain.Hidden || stream.Cost != plain.Cost {
				t.Fatalf("trial %d par %d classes %v: symmetric streaming (found=%v hidden=%b cost=%g) != plain (found=%v hidden=%b cost=%g)",
					trial, par, classes, stream.Found, stream.Hidden, stream.Cost, plain.Found, plain.Hidden, plain.Cost)
			}
			if stream.Stats.Checked+stream.Stats.Pruned != 1<<k {
				t.Fatalf("trial %d par %d: symmetric streaming Checked %d + Pruned %d != %d",
					trial, par, stream.Stats.Checked, stream.Stats.Pruned, 1<<k)
			}
		}
	}
	if !sawClass {
		t.Fatal("no nontrivial symmetry class arose; widen the trial count")
	}
}

// TestSymmetryWithBatchMatches composes both tentpole features at once —
// the configuration the compiled-oracle wiring produces.
func TestSymmetryWithBatchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(9)
		s, oracle, classes := symmetricSetup(t, rng, k)
		plain, err := s.MinCost(oracle, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		batch, _, _ := countingBatch(oracle)
		got, err := s.MinCost(oracle, Options{Parallelism: 3, Batch: batch, BatchSize: 8, Symmetry: classes})
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != plain.Found || got.Hidden != plain.Hidden || got.Cost != plain.Cost {
			t.Fatalf("trial %d classes %v: batched+symmetric (found=%v hidden=%b cost=%g) != plain (found=%v hidden=%b cost=%g)",
				trial, classes, got.Found, got.Hidden, got.Cost, plain.Found, plain.Hidden, plain.Cost)
		}
		if got.Stats.Checked+got.Stats.Pruned != 1<<k {
			t.Fatalf("trial %d: Checked %d + Pruned %d != %d", trial, got.Stats.Checked, got.Stats.Pruned, 1<<k)
		}
	}
}

// TestSymmetryValidation pins the rejection paths: bad indices, overlapping
// classes, and cost mixtures are configuration errors, not silent misprunes.
func TestSymmetryValidation(t *testing.T) {
	attrs := []string{"a", "b", "c"}
	s := testSpace(t, attrs, map[string]float64{"a": 1, "b": 1, "c": 2})
	oracle := func(v Mask) (bool, error) { return true, nil }
	for name, classes := range map[string][][]int{
		"out of range": {{0, 3}},
		"negative":     {{-1, 1}},
		"overlap":      {{0, 1}, {1, 2}},
		"mixed costs":  {{0, 2}},
	} {
		if _, err := s.MinCost(oracle, Options{Symmetry: classes}); err == nil {
			t.Errorf("%s: accepted %v", name, classes)
		}
	}
	// Singleton and empty classes are ignored, not errors.
	res, err := s.MinCost(oracle, Options{Symmetry: [][]int{{0}, {}, {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hidden != 0 {
		t.Fatalf("degenerate classes changed the result: %+v", res)
	}
}
