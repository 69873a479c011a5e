// Package load drives a mixed workload against a running secureview-serve
// instance and reports what a capacity plan needs: latency percentiles,
// throughput, and how the server sheds (429) or fails (5xx) under pressure.
//
// The workload mixes the request shapes the server optimizes for:
//
//   - single solves of generated (class, seed) scenarios — the cache-miss
//     and cache-hit steady state — with a slice of committed-corpus IDs
//     mixed in (hard instances under cheap certified solvers);
//   - batches of generated jobs — the admission-weight path;
//   - edit chains over a spec document — cost-only edits chaining each
//     response's fingerprint into the next request's base, which the
//     server's Session answers by re-costing its cached problem.
//
// Every worker runs its own deterministic RNG stream, so a given (seed,
// workers, duration) triple replays the same request sequence against
// comparable servers.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
)

// Config parameterizes a run. BaseURL is required; zero values elsewhere
// take the defaults documented per field.
type Config struct {
	// BaseURL is the server under load, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Duration is the wall-clock run length (default 5s).
	Duration time.Duration
	// Workers is the number of concurrent clients (default 4).
	Workers int
	// Seed shuffles the per-worker request streams (default 1).
	Seed int64
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

// Report is the run summary, JSON-shaped for scripting. Latency rows cover
// successful (2xx) requests only — 429 rejections return in microseconds
// and would drag the percentiles into fiction.
type Report struct {
	DurationSeconds float64 `json:"durationSeconds"`
	Workers         int     `json:"workers"`
	// Requests counts completed HTTP round trips of any status; Solves,
	// Batches and EditSteps split them by workload shape.
	Requests  int64 `json:"requests"`
	Solves    int64 `json:"solves"`
	Batches   int64 `json:"batches"`
	EditSteps int64 `json:"editSteps"`
	// Rejected counts 429s (load shed at admission — expected under
	// saturation); Errors counts transport failures, 5xx and unexpected 4xx.
	Rejected int64 `json:"rejected429"`
	Errors   int64 `json:"errors"`
	// RequestsPerSecond is completed round trips over the true elapsed time.
	RequestsPerSecond float64 `json:"requestsPerSecond"`
	P50Ms             float64 `json:"p50Ms"`
	P99Ms             float64 `json:"p99Ms"`
	MaxMs             float64 `json:"maxMs"`
}

// editDoc is the all-private spec document the edit chains mutate: a single
// private table module over four binary attributes, engine-solvable so
// every step runs a real engine search.
const editDoc = `{
  "name": "loadgen-edit",
  "gamma": 2,
  "costs": {"a1": %g, "a2": %g, "b1": %g, "b2": %g},
  "modules": [
    {
      "name": "mix", "visibility": "private",
      "inputs":  [{"name": "a1", "domain": 2}, {"name": "a2", "domain": 2}],
      "outputs": [{"name": "b1", "domain": 2}, {"name": "b2", "domain": 2}],
      "kind": "table",
      "table": [
        {"in": [0, 0], "out": [0, 0]},
        {"in": [0, 1], "out": [1, 0]},
        {"in": [1, 0], "out": [1, 1]},
        {"in": [1, 1], "out": [0, 1]}
      ]
    }
  ]
}`

// worker carries one client goroutine's private state and tallies.
type worker struct {
	cfg     Config
	client  *http.Client
	rng     *rand.Rand
	classes []string
	corpus  []string

	// Edit-chain state: current costs and the last response's fingerprint.
	costs [4]float64
	base  string

	latencies []float64 // ms, successful requests only
	solves    int64
	batches   int64
	editSteps int64
	rejected  int64
	errors    int64
}

// Run drives the workload until cfg.Duration elapses and returns the
// aggregated report. The only error is a misconfiguration; request-level
// failures are counted, not returned, because a load generator's job is to
// keep pushing.
func Run(cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL is required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var classes []string
	for _, c := range gen.Classes() {
		classes = append(classes, c.Name)
	}
	corpusIDs := corpus.IDs()

	workers := make([]*worker, cfg.Workers)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{
			cfg: cfg, client: client, classes: classes, corpus: corpusIDs,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			costs: [4]float64{1, 2, 3, 4},
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.step()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{DurationSeconds: elapsed.Seconds(), Workers: cfg.Workers}
	var lat []float64
	for _, w := range workers {
		rep.Solves += w.solves
		rep.Batches += w.batches
		rep.EditSteps += w.editSteps
		rep.Rejected += w.rejected
		rep.Errors += w.errors
		lat = append(lat, w.latencies...)
	}
	rep.Requests = rep.Solves + rep.Batches + rep.EditSteps
	rep.RequestsPerSecond = float64(rep.Requests) / elapsed.Seconds()
	if len(lat) > 0 {
		sort.Float64s(lat)
		rep.P50Ms = lat[len(lat)/2]
		rep.P99Ms = lat[(len(lat)*99+99)/100-1]
		rep.MaxMs = lat[len(lat)-1]
	}
	return rep, nil
}

// step issues one request of a randomly drawn shape: ~50% single solves,
// ~25% batches, ~25% edit-chain steps.
func (w *worker) step() {
	switch r := w.rng.Intn(4); {
	case r < 2:
		w.solves++
		w.post("/v1/solve", w.generatedJob(), nil)
	case r == 2:
		w.batches++
		jobs := make([]json.RawMessage, 2+w.rng.Intn(3))
		for i := range jobs {
			jobs[i] = w.generatedJob()
		}
		body, _ := json.Marshal(map[string]any{"jobs": jobs})
		w.post("/v1/batch", body, nil)
	default:
		w.editStep()
	}
}

// generatedJob draws a (class, seed) solve over the cheap certified
// solvers, with roughly one request in four naming a committed-corpus
// entry instead — mined hard instances exercise the derivation cache with
// workflows no (class, seed) request produces. A small seed range keeps
// the server's cache in steady state (mostly hits) rather than deriving a
// fresh instance per request.
func (w *worker) generatedJob() json.RawMessage {
	solvers := [...]string{"greedy", "portfolio", "exact"}
	job := map[string]any{
		"solver":  solvers[w.rng.Intn(len(solvers))],
		"variant": "set",
	}
	if n := len(w.corpus); n > 0 && w.rng.Intn(4) == 0 {
		job["corpus"] = w.corpus[w.rng.Intn(n)]
		job["solver"] = "greedy" // corpus entries are hard by construction
	} else {
		job["generated"] = map[string]any{
			"class": w.classes[w.rng.Intn(len(w.classes))],
			"seed":  w.rng.Intn(3),
		}
	}
	body, _ := json.Marshal(job)
	return body
}

// editStep mutates one cost and re-solves with the previous fingerprint as
// base, continuing the chain from the response.
func (w *worker) editStep() {
	w.editSteps++
	w.costs[w.rng.Intn(4)] *= 0.5 + w.rng.Float64()*1.5
	doc := fmt.Sprintf(editDoc, w.costs[0], w.costs[1], w.costs[2], w.costs[3])
	req, _ := json.Marshal(map[string]any{
		"spec":   json.RawMessage(doc),
		"solver": "engine",
		"base":   w.base,
	})
	var resp struct {
		Fingerprint string `json:"fingerprint"`
	}
	w.post("/v1/solve", req, &resp)
	if resp.Fingerprint != "" {
		w.base = resp.Fingerprint
	}
}

// post issues one request, classifies the outcome, and decodes a 2xx body
// into out when non-nil.
func (w *worker) post(path string, body []byte, out any) {
	start := time.Now()
	resp, err := w.client.Post(w.cfg.BaseURL+path, "application/json", bytes.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		w.errors++
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		w.rejected++
		io.Copy(io.Discard, resp.Body)
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		w.latencies = append(w.latencies, float64(elapsed.Nanoseconds())/1e6)
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				w.errors++
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
	default:
		w.errors++
		io.Copy(io.Discard, resp.Body)
	}
}
