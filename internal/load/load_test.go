package load_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"secureview/internal/load"
	"secureview/internal/server"
)

func TestRunValidation(t *testing.T) {
	if _, err := load.Run(load.Config{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
}

// TestRunMixedWorkload drives the generator against a real in-process
// server: no errors, every workload shape exercised, edit chains served by
// delta derivation, and the percentile rows ordered sanely.
func TestRunMixedWorkload(t *testing.T) {
	s := server.MustNew(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := load.Run(load.Config{
		BaseURL:  ts.URL,
		Duration: 1200 * time.Millisecond,
		Workers:  3,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run produced %d errors: %+v", rep.Errors, rep)
	}
	if rep.Requests == 0 || rep.Solves == 0 || rep.Batches == 0 || rep.EditSteps == 0 {
		t.Fatalf("workload shape missing: %+v", rep)
	}
	if rep.Requests != rep.Solves+rep.Batches+rep.EditSteps {
		t.Fatalf("request accounting off: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P50Ms > rep.P99Ms || rep.P99Ms > rep.MaxMs {
		t.Fatalf("percentiles disordered: p50=%g p99=%g max=%g", rep.P50Ms, rep.P99Ms, rep.MaxMs)
	}
	if rep.RequestsPerSecond <= 0 {
		t.Fatalf("throughput %g", rep.RequestsPerSecond)
	}
	// The deterministic seed streams hit the same few generated instances
	// over and over; the shared session must show cache reuse.
	if st := s.Session().Stats(); st.Hits == 0 {
		t.Fatalf("no session cache reuse under load: %+v", st)
	}
	// Edit chains only re-cost one structure, so the session must re-cost
	// its cached problem rather than re-derive it.
	if st := s.Session().Stats(); st.DeltaDerives == 0 {
		t.Fatalf("no edit-chain step was delta-derived: %+v", st)
	}
}
