package solve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"secureview/internal/gen"
	_ "secureview/internal/gen/corpus" // register the corpus-ID resolver
	"secureview/internal/secureview"
	"secureview/internal/solve"
)

// resolveInstance resolves a workflow-backed reference or fails the test.
func resolveInstance(t testing.TB, ref gen.InstanceRef) *gen.Instance {
	t.Helper()
	rv, err := gen.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Instance == nil {
		t.Fatalf("%s is not workflow-backed", rv.Name)
	}
	return rv.Instance
}

// entry runs Session.Entry on a resolved instance.
func entry(ctx context.Context, sess *solve.Session, alias string, it *gen.Instance, v secureview.Variant) solve.Entry {
	return sess.Entry(ctx, alias, it.W, v, it.Gamma, it.Costs, it.PrivatizeCosts)
}

// TestServedFingerprintsPinned pins the response fingerprint's value.
// Clients chain cost-only edits by echoing it, so the bytes it hashes must
// not drift; the values are read from the served path before reference
// aliases and kept fingerprints existed.
func TestServedFingerprintsPinned(t *testing.T) {
	cases := []struct {
		ref  gen.InstanceRef
		v    secureview.Variant
		want string
	}{
		{gen.InstanceRef{Class: "chain", Seed: 1}, secureview.Set,
			"ca245b86644b198514f00711cd0ade535549cefecd44b9c5d386daddc43e433a"},
		{gen.InstanceRef{Class: "chain", Seed: 1}, secureview.Cardinality,
			"f4de1112299e867fbaf43861e20cb549ab97501a4df91571b46aede57e5ce713"},
		{gen.InstanceRef{Corpus: "07c393addf2a"}, secureview.Set,
			"20d43f4b77eb586493634b1d79fb781ca186f7f63b251944863ba53a5e60f6b4"},
	}
	ctx := context.Background()
	for _, c := range cases {
		sess := solve.NewSession()
		it := resolveInstance(t, c.ref)
		p, err := sess.Problem(ctx, it.W, c.v, it.Gamma, it.Costs, it.PrivatizeCosts)
		if err != nil {
			t.Fatal(err)
		}
		if got := solve.ProblemFingerprint(p, c.v); got != c.want {
			t.Errorf("%+v variant %d: fingerprint %s, want %s", c.ref, c.v, got, c.want)
		}
		// The kept fingerprint is the same bytes, on the first call and on
		// every later one, through the content key and through an alias.
		x := entry(ctx, sess, "ref", it, c.v)
		for i := 0; i < 2; i++ {
			if got := x.Fingerprint(c.v); got != c.want {
				t.Errorf("%+v variant %d: kept fingerprint %s, want %s", c.ref, c.v, got, c.want)
			}
		}
		if a, ok := sess.Alias(ctx, "ref"); !ok || a.Fingerprint(c.v) != c.want {
			t.Errorf("%+v variant %d: alias hit %v, fingerprint %s", c.ref, c.v, ok, a.Fingerprint(c.v))
		}
		if got := (solve.Entry{P: p}).Fingerprint(c.v); got != c.want {
			t.Errorf("%+v: session-less fingerprint %s, want %s", c.ref, got, c.want)
		}
	}
}

// TestSessionAliasHits: a repeated reference is one miss, then hits that
// return the entry's own problem without touching the workflow.
func TestSessionAliasHits(t *testing.T) {
	ctx := context.Background()
	sess := solve.NewSession()
	it := tinyInstance(t, 11)
	if _, ok := sess.Alias(ctx, "tiny/11"); ok {
		t.Fatal("unbound alias hit")
	}
	first := entry(ctx, sess, "tiny/11", it, secureview.Set)
	if first.Err != nil || first.P == nil {
		t.Fatalf("first request: %v", first.Err)
	}
	// The alias's bytes count in its entry's size.
	plain := solve.NewSession()
	entry(ctx, plain, "", it, secureview.Set)
	if got, base := sess.Stats().Bytes, plain.Stats().Bytes; got < base+int64(len("tiny/11")) {
		t.Fatalf("bound alias left the accounted size at %d bytes, %d without it", got, base)
	}
	for i := 1; i <= 3; i++ {
		x, ok := sess.Alias(ctx, "tiny/11")
		if !ok || x.P != first.P || x.Err != nil {
			t.Fatalf("repeat %d: hit %v, same problem %v, err %v", i, ok, x.P == first.P, x.Err)
		}
		if st := sess.Stats(); st.Hits != i || st.Misses != 1 || st.Entries != 1 {
			t.Fatalf("repeat %d: %+v, want %d hits and one miss", i, st, i)
		}
	}
	if _, ok := sess.Alias(ctx, "tiny/12"); ok {
		t.Fatal("another reference hit tiny/11's alias")
	}
	// A dead context never hits: the caller's full path reports its error.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := sess.Alias(dead, "tiny/11"); ok {
		t.Fatal("alias hit under a cancelled context")
	}
	if err := sess.CheckAliases(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionAliasCachedError: a derivation error is cached on its entry,
// and an alias bound to that entry returns the same error.
func TestSessionAliasCachedError(t *testing.T) {
	ctx := context.Background()
	sess := solve.NewSession()
	it := resolveInstance(t, gen.InstanceRef{Class: "chain", Seed: 1, Gamma: 1 << 40})
	first := entry(ctx, sess, "chain/1/huge", it, secureview.Set)
	if !errors.Is(first.Err, secureview.ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", first.Err)
	}
	x, ok := sess.Alias(ctx, "chain/1/huge")
	if !ok || x.Err != first.Err || x.P != nil {
		t.Fatalf("alias hit %v, err %v, want the cached %v", ok, x.Err, first.Err)
	}
	if st := sess.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("%+v, want one miss then one hit", st)
	}
}

// TestSessionAliasCancelledMissBindsNothing: a caller cancelled inside the
// miss path neither caches its context error nor binds its alias, so the
// next request through the reference derives.
func TestSessionAliasCancelledMissBindsNothing(t *testing.T) {
	sess := solve.NewSession()
	it := tinyInstance(t, 13)
	ctx := &countdownCtx{Context: context.Background(), n: 1}
	if x := entry(ctx, sess, "tiny/13", it, secureview.Set); !errors.Is(x.Err, context.Canceled) {
		t.Fatalf("cancelled miss returned %v, want context.Canceled", x.Err)
	}
	if _, ok := sess.Alias(context.Background(), "tiny/13"); ok {
		t.Fatal("cancelled miss bound its alias")
	}
	if st := sess.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cancelled miss left state behind: %+v", st)
	}
	if x := entry(context.Background(), sess, "tiny/13", it, secureview.Set); x.Err != nil {
		t.Fatal(x.Err)
	}
	if _, ok := sess.Alias(context.Background(), "tiny/13"); !ok {
		t.Fatal("the retry did not bind the alias")
	}
}

// TestSessionAliasEviction streams distinct references through a small
// budget: the accounted bytes, aliases included, stay under it, no alias
// outlives its entry, and a reference whose entry was evicted misses and
// re-derives the same problem.
func TestSessionAliasEviction(t *testing.T) {
	const capBytes = 8 << 10
	ctx := context.Background()
	sess := solve.NewSessionBytes(capBytes)
	const n = 60
	for seed := int64(0); seed < n; seed++ {
		it := tinyInstance(t, seed)
		// Two references to one workflow: both aliases live and die with
		// the entry.
		for _, alias := range []string{fmt.Sprintf("a/%d", seed), fmt.Sprintf("b/%d", seed)} {
			if x := entry(ctx, sess, alias, it, secureview.Set); x.Err != nil {
				t.Fatalf("seed %d: %v", seed, x.Err)
			}
		}
		if st := sess.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("seed %d: %d bytes over the %d budget", seed, st.Bytes, st.MaxBytes)
		}
		if err := sess.CheckAliases(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	st := sess.Stats()
	if st.Evictions == 0 || st.Misses != n || st.Hits != n {
		t.Fatalf("%+v, want evictions, %d misses and %d content hits", st, n, n)
	}
	if _, ok := sess.Alias(ctx, "a/0"); ok {
		t.Fatal("an alias outlived its evicted entry")
	}
	it := tinyInstance(t, 0)
	direct, err := it.Derive(secureview.Set)
	if err != nil {
		t.Fatal(err)
	}
	x := entry(ctx, sess, "a/0", it, secureview.Set)
	if x.Err != nil || gen.ProblemFingerprint(x.P) != gen.ProblemFingerprint(direct) {
		t.Fatalf("re-derived problem differs from the direct derivation (err %v)", x.Err)
	}
	if st2 := sess.Stats(); st2.Misses != st.Misses+1 {
		t.Fatalf("evicted reference: misses %d→%d, want one more", st.Misses, st2.Misses)
	}
	if a, ok := sess.Alias(ctx, "a/0"); !ok || a.P != x.P {
		t.Fatal("the re-derivation did not re-bind the alias")
	}
}

// TestSessionAliasAfterRestore: snapshots hold entries, not aliases. After
// a restore the first request through a reference is a content hit that
// binds the alias again, and the second is an alias hit.
func TestSessionAliasAfterRestore(t *testing.T) {
	ctx := context.Background()
	src := solve.NewSession()
	it := tinyInstance(t, 21)
	want := entry(ctx, src, "tiny/21", it, secureview.Set)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sess, n, err := solve.RestoreSession(&buf, 0)
	if err != nil || n != 1 {
		t.Fatalf("restored %d entries: %v", n, err)
	}
	if _, ok := sess.Alias(ctx, "tiny/21"); ok {
		t.Fatal("a restored session knows an alias")
	}
	x := entry(ctx, sess, "tiny/21", it, secureview.Set)
	if st := sess.Stats(); x.Err != nil || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("first request after restore: %+v (err %v), want a content hit", st, x.Err)
	}
	a, ok := sess.Alias(ctx, "tiny/21")
	if st := sess.Stats(); !ok || a.P != x.P || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("second request after restore: hit %v, %+v, want an alias hit", ok, st)
	}
	if got, w := a.Fingerprint(secureview.Set), want.Fingerprint(secureview.Set); got != w {
		t.Fatalf("restored fingerprint %s, want %s", got, w)
	}
}

// TestSessionAliasConcurrentFirstRequests: concurrent first requests for
// one reference derive once (run under -race in CI).
func TestSessionAliasConcurrentFirstRequests(t *testing.T) {
	ctx := context.Background()
	sess := solve.NewSession()
	it := tinyInstance(t, 31)
	const workers = 8
	got := make([]solve.Entry, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if x, ok := sess.Alias(ctx, "tiny/31"); ok {
				got[i] = x
				return
			}
			got[i] = entry(ctx, sess, "tiny/31", it, secureview.Set)
			got[i].Fingerprint(secureview.Set)
		}()
	}
	wg.Wait()
	for i, x := range got {
		if x.Err != nil || x.P != got[0].P {
			t.Fatalf("request %d: err %v, shared problem %v", i, x.Err, x.P == got[0].P)
		}
	}
	if st := sess.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("%+v, want one derivation and %d hits", st, workers-1)
	}
	if err := sess.CheckAliases(); err != nil {
		t.Fatal(err)
	}
}
