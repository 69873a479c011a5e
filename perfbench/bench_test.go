package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode checks that BENCHMARK.json lists the workloads and
// metrics this program reports, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		declared []specMetric
		units    map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits()}} {
		if len(c.declared) != len(c.units) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", len(c.declared), len(c.units))
		}
		for _, m := range c.declared {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q (reported: %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

// TestStreamDigest checks seed discipline: a seed always generates the
// same request stream, and another seed a different one.
func TestStreamDigest(t *testing.T) {
	digest := func(name string, seed int64) string {
		wl, err := newWorkload(name, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := wl.digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 1), digest(name, 1), digest(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

// TestWorkloadsBriefly runs every workload for a second against a freshly
// built server, untraced and traced, and checks that every metric
// BENCHMARK.json names is reported with its unit and that every request
// and every check passed (error_rate 0).
func TestWorkloadsBriefly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs each workload twice")
	}
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "secureview-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "secureview/cmd/secureview-serve").CombinedOutput(); err != nil {
		t.Fatalf("building secureview-serve: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: name, seed: 1, window: time.Second, trace: trace,
					serveBin: bin, outDir: t.TempDir()}
				res, err := run(cfg, io.Discard, io.Discard)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %v: correct %v, %d of %d requests failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics reported, %d declared", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s reported %v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestCutSlices checks that the window is cut only at round boundaries,
// into slices of at least sliceSeconds and sliceRequests, with the
// remainder joining the last slice.
func TestCutSlices(t *testing.T) {
	const round = 4
	t0 := time.Unix(0, 0)
	step := 10 * time.Millisecond // 100 requests per second
	var samples []sample
	for i := 0; i < 730; i++ {
		start := t0.Add(time.Duration(i) * step)
		samples = append(samples, sample{index: i, start: start, end: start.Add(step)})
	}
	got := cutSlices(samples, round)
	want := []int{200, 400, 730} // 2 s each; the last 130 requests join the third slice
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cutSlices = %v, want %v", got, want)
	}
	if got := cutSlices(samples[:150], round); fmt.Sprint(got) != "[150]" {
		t.Errorf("a window shorter than one slice gave %v, want [150]", got)
	}
}
