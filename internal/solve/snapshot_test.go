package solve_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/solve"
	"secureview/internal/wire"
)

// populateSession derives and solves every generator class through one
// session, returning the solve results the restored session must
// reproduce.
type popResult struct {
	inst    *gen.Instance
	variant secureview.Variant
	solver  string
	res     solve.Result
}

func populateSession(t *testing.T, sess *solve.Session) []popResult {
	t.Helper()
	ctx := context.Background()
	var out []popResult
	for _, c := range gen.Classes() {
		inst := gen.MustNew(c.Cfg, 3)
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			p, err := sess.Problem(ctx, inst.W, v, inst.Gamma, inst.Costs, inst.PrivatizeCosts)
			if err != nil {
				continue // infeasible at this Γ: cached error entries don't snapshot
			}
			for _, sv := range solve.For(p, v) {
				res, err := sv.Solve(ctx, p, solve.Options{Variant: v})
				if err != nil {
					continue
				}
				out = append(out, popResult{inst, v, sv.Name(), res})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no solvable (class, variant) pairs")
	}
	return out
}

// TestSnapshotRoundTrip is the tentpole property: a restored session is
// indistinguishable from the source. Re-snapshotting it is byte-identical
// (same entries, same LRU order, same deterministic encodings), every
// derivation re-request is a cache hit, and re-solving through the
// restored state returns byte-identical solutions.
func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := solve.NewSession()
	results := populateSession(t, src)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap := buf.Bytes()

	restored, n, err := solve.RestoreSession(bytes.NewReader(snap), 0)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	srcStats, gotStats := src.Stats(), restored.Stats()
	if n != gotStats.Entries {
		t.Fatalf("installed %d entries, stats say %d", n, gotStats.Entries)
	}
	// Error entries don't travel; this populate produces none that commit,
	// except possibly infeasible derivations, which were skipped above, so
	// occupancy must carry over exactly.
	if gotStats.Entries == 0 || gotStats.Bytes == 0 {
		t.Fatalf("restored session empty: %+v", gotStats)
	}
	if gotStats.Bytes != srcStats.Bytes || gotStats.Entries != srcStats.Entries {
		t.Fatalf("occupancy diverged: restored %d entries/%d bytes, source %d/%d",
			gotStats.Entries, gotStats.Bytes, srcStats.Entries, srcStats.Bytes)
	}

	// Re-snapshot before serving anything (serving reorders the LRU list):
	// byte-identical output pins both losslessness and determinism.
	var buf2 bytes.Buffer
	if err := restored.Snapshot(&buf2); err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if !bytes.Equal(snap, buf2.Bytes()) {
		t.Fatalf("re-snapshot not byte-identical: %d vs %d bytes", len(buf2.Bytes()), len(snap))
	}

	// Every derivation re-request must hit; every re-solve must reproduce
	// the original solution byte for byte.
	for _, pr := range results {
		p, err := restored.Problem(ctx, pr.inst.W, pr.variant, pr.inst.Gamma, pr.inst.Costs, pr.inst.PrivatizeCosts)
		if err != nil {
			t.Fatalf("restored derivation failed: %v", err)
		}
		res, err := solve.Solve(ctx, pr.solver, p, solve.Options{Variant: pr.variant})
		if err != nil {
			t.Fatalf("restored solve %s: %v", pr.solver, err)
		}
		// Costs.Sum adds in sorted-key order, so two solves of the same
		// problem produce bit-identical costs, and every solver is
		// deterministic (the portfolio runs a fixed plan), so the
		// solution sets must match too.
		if res.Cost != pr.res.Cost {
			t.Fatalf("%s/%s: restored cost diverged: %g vs %g",
				pr.solver, pr.variant, res.Cost, pr.res.Cost)
		}
		if strings.Join(res.Solution.Hidden.Sorted(), ",") != strings.Join(pr.res.Solution.Hidden.Sorted(), ",") ||
			strings.Join(res.Solution.Privatized.Sorted(), ",") != strings.Join(pr.res.Solution.Privatized.Sorted(), ",") {
			t.Fatalf("%s/%s: restored solution diverged: cost %g hidden %v vs cost %g hidden %v",
				pr.solver, pr.variant, res.Cost, res.Solution.Hidden.Sorted(), pr.res.Cost, pr.res.Solution.Hidden.Sorted())
		}
	}
	stats := restored.Stats()
	if stats.Misses != 0 {
		t.Fatalf("restored session re-derived: %+v", stats)
	}
	if stats.Hits != len(results) {
		t.Fatalf("restored session served %d of %d derivations from cache: %+v", stats.Hits, len(results), stats)
	}
}

// TestRestoreRejectsCorruption: every single-byte flip, every truncation
// point, an empty stream, and a version bump all restore to an EMPTY
// session with an error — never a panic, never a partial install.
func TestRestoreRejectsCorruption(t *testing.T) {
	src := solve.NewSession()
	populateSession(t, src)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	check := func(data []byte, what string) {
		t.Helper()
		s, n, err := solve.RestoreSession(bytes.NewReader(data), 0)
		if err == nil {
			t.Fatalf("%s restored without error", what)
		}
		if n != 0 || s.Stats().Entries != 0 || s.Stats().Bytes != 0 {
			t.Fatalf("%s partially installed: n=%d stats=%+v", what, n, s.Stats())
		}
	}

	stride := len(snap)/512 + 1 // sample flips; CRC catches any single flip
	for i := 0; i < len(snap); i += stride {
		bad := append([]byte(nil), snap...)
		bad[i] ^= 0xFF
		check(bad, "flipped byte")
	}
	for _, cut := range []int{0, 1, len(snap) / 3, len(snap) - 1} {
		check(snap[:cut], "truncated stream")
	}
	check([]byte("not a snapshot at all"), "garbage")
	// A version bump must be refused outright, not migrated.
	bumped := append([]byte(nil), snap...)
	bumped[4]++ // version field sits right after the 4-byte magic
	check(bumped, "version bump")
}

// TestRestoreHonorsBudget: restoring a large snapshot into a small session
// installs through the normal accounting paths, so the budget holds and
// only the most recently used tail survives.
func TestRestoreHonorsBudget(t *testing.T) {
	src := solve.NewSession()
	populateSession(t, src)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := src.Stats().Bytes
	budget := full / 3
	s, n, err := solve.RestoreSession(bytes.NewReader(buf.Bytes()), budget)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	stats := s.Stats()
	if stats.Bytes > budget {
		t.Fatalf("budget %d exceeded: %d bytes resident", budget, stats.Bytes)
	}
	if n == 0 || stats.Entries == 0 {
		t.Fatal("budgeted restore kept nothing")
	}
	if stats.Entries >= src.Stats().Entries {
		t.Fatalf("budgeted restore evicted nothing: %d entries", stats.Entries)
	}
}

// TestRestoreKeepsLiveEntries: restoring into a session that already holds
// a key keeps the live entry (live state is newer than any snapshot file).
func TestRestoreKeepsLiveEntries(t *testing.T) {
	ctx := context.Background()
	inst := gen.MustNew(gen.Classes()[0].Cfg, 3)

	src := solve.NewSession()
	p1, err := src.Problem(ctx, inst.W, secureview.Set, inst.Gamma, inst.Costs, inst.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	live := solve.NewSession()
	p2, err := live.Problem(ctx, inst.W, secureview.Set, inst.Gamma, inst.Costs, inst.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := live.Restore(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("Restore over live entry: n=%d err=%v", n, err)
	}
	got, err := live.Problem(ctx, inst.W, secureview.Set, inst.Gamma, inst.Costs, inst.PrivatizeCosts)
	if err != nil {
		t.Fatal(err)
	}
	if got != p2 {
		t.Fatal("restore replaced a live entry")
	}
	_ = p1
}

// committedSnapshot reads a snapshot file committed under testdata. All
// were written by earlier builds of this package, from the set and
// cardinality problems of the chain and tree-constant classes (seed 3):
// session-v1-problems.snap holds those four problem entries alone;
// session-v1.snap holds them plus the engine's warm-start frontier for each
// (entry kind 2); session-v1-oracle.snap holds one problem entry followed
// by an entry of kind 0, the compiled module oracle that snapshots used to
// carry.
func committedSnapshot(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestRestoreCommittedSnapshot pins format compatibility: a problems-only
// snapshot written before warm starts were retired still restores and
// re-snapshots byte for byte, and its entries still answer the requests
// that produced them (derivation keys unchanged). Snapshots carrying a
// retired entry kind — warm-start frontiers or compiled oracles — are
// refused as a whole.
func TestRestoreCommittedSnapshot(t *testing.T) {
	ctx := context.Background()
	snap := committedSnapshot(t, "session-v1-problems.snap")
	sess, n, err := solve.RestoreSession(bytes.NewReader(snap), 0)
	if err != nil || n != 4 {
		t.Fatalf("RestoreSession: n=%d err=%v, want 4 entries", n, err)
	}
	var again bytes.Buffer
	if err := sess.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatalf("re-snapshot not byte-identical: %d vs %d bytes", again.Len(), len(snap))
	}
	for _, class := range []string{"chain", "tree-constant"} {
		rv, err := gen.Resolve(gen.InstanceRef{Class: class, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		inst := rv.Instance
		for _, v := range []secureview.Variant{secureview.Set, secureview.Cardinality} {
			if _, err := sess.Problem(ctx, inst.W, v, inst.Gamma, inst.Costs, inst.PrivatizeCosts); err != nil {
				t.Fatalf("%s/%s: %v", class, v, err)
			}
		}
	}
	if st := sess.Stats(); st.Misses != 0 || st.Hits != 4 {
		t.Fatalf("restored entries did not serve their requests: %+v", st)
	}

	for _, c := range []struct{ file, kind string }{
		{"session-v1.snap", "entry kind 2"},
		{"session-v1-oracle.snap", "entry kind 0"},
	} {
		s, n, err := solve.RestoreSession(bytes.NewReader(committedSnapshot(t, c.file)), 0)
		if err == nil || !strings.Contains(err.Error(), c.kind) {
			t.Fatalf("%s: got %v, want an %q rejection", c.file, err, c.kind)
		}
		if n != 0 || s.Stats().Entries != 0 {
			t.Fatalf("%s partially installed: n=%d %+v", c.file, n, s.Stats())
		}
	}
}

// FuzzRestoreSession drives snapshot payloads through Restore. Every input
// is sealed with the current version and a valid checksum, so mutations
// reach the entry decoder rather than stopping at the envelope. Restore must never panic; a refused payload
// leaves the session empty, and either way the session keeps serving.
func FuzzRestoreSession(f *testing.F) {
	for _, name := range []string{"session-v1.snap", "session-v1-oracle.snap", "session-v1-problems.snap"} {
		payload, err := wire.Open(committedSnapshot(f, name), solve.SnapshotVersion)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	inst := tinyInstance(f, 1)
	f.Fuzz(func(t *testing.T, payload []byte) {
		sess, n, rerr := solve.RestoreSession(bytes.NewReader(wire.Seal(solve.SnapshotVersion, payload)), 0)
		if st := sess.Stats(); rerr != nil && (n != 0 || st.Entries != 0 || st.Bytes != 0) {
			t.Fatalf("refused payload installed state: n=%d %+v", n, st)
		}
		if rerr == nil {
			if err := sess.Snapshot(io.Discard); err != nil {
				t.Fatalf("restored session does not snapshot: %v", err)
			}
		}
		if _, err := sess.Problem(context.Background(), inst.W, secureview.Set,
			inst.Gamma, inst.Costs, inst.PrivatizeCosts); err != nil {
			t.Fatalf("session stopped serving after restore (restore err %v): %v", rerr, err)
		}
	})
}
