// Command perfbench is the served-path benchmark of secureview. It starts
// the secureview-serve binary, drives it over loopback HTTP with one of
// four seeded workloads, checks every answer against a reference computed
// with the library, and prints the end-to-end metrics, each the median of
// its values over slices of the window. With -trace 1 it also replays the
// same requests in-process, with a span around each call into a layer's
// public function, and prints the per-layer metrics instead.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 512, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// run.sh builds both binaries and passes -serve and -out; from the
// repository root:
//
//	bash perfbench/run.sh --workload exact-search --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"secureview/internal/server"
	"secureview/internal/solve"
)

// setupRuns is how many times a run starts and warms a server; setup_s is
// the median, and the last server is the one measured.
const setupRuns = 5

// procs is the GOMAXPROCS of the measured server, and of this program while
// it sends requests or replays them, so the run holds no more busy threads
// than a two-core host has: one serves while the other waits for the
// answer. With the default, the portfolio's racers, the batch workers and
// the server's garbage collector compete with the client for both cores:
// in paired 10-second runs on a two-vCPU virtual machine, a process busy on
// one core raised cached-mix's p90 by 15-37% with the default and by under
// 5% with one proc.
const procs = 1

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	serveBin string
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "request-stream seed")
	fs.IntVar(&seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = also replay in-process with spans and print the per-layer metrics")
	fs.StringVar(&cfg.serveBin, "serve", "", "secureview-serve binary to drive")
	fs.StringVar(&cfg.outDir, "out", "", "directory for the span dump (-trace 1)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	case cfg.serveBin == "":
		return cfg, errors.New("-serve is required")
	case seconds < 1:
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	return cfg, nil
}

// failures counts failed checks and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// httpRun is what the untraced HTTP run measured.
type httpRun struct {
	setups  []float64
	samples []sample
	reqs    []request               // the request each sample sent
	stats   [2]server.StatsResponse // after the warm-up and at the end
	rssMB   float64
}

// run measures one workload and returns its result line.
func run(cfg config, stdout, stderr io.Writer) (*result, error) {
	if _, err := os.Stat(cfg.serveBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.window.Seconds())
	if err != nil {
		return nil, err
	}
	digest, err := wl.digest()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d stream digest %s\n", wl.name, cfg.seed, digest)

	refs := newReferences()
	refs.ensure(wl.warmup)
	var bad failures
	defaultProcs := runtime.GOMAXPROCS(procs)
	hr, err := measureHTTP(cfg, wl, refs, &bad)
	runtime.GOMAXPROCS(defaultProcs) // references are computed in parallel
	if err != nil {
		return nil, err
	}
	refs.ensure(hr.reqs)
	var failedReqs failures
	ok := make([]bool, len(hr.samples))
	for i := range hr.samples {
		s := &hr.samples[i]
		err := s.err
		if err == nil {
			err = checkResponse(refs, hr.reqs[i], s.code, s.body)
		}
		if err != nil {
			failedReqs.add("request %d: %v", s.index, err)
			continue
		}
		ok[i] = true
	}
	e2e, nSlices := windowMetrics(hr.samples, ok, wl.stream.round)
	e2e["setup_s"] = median(hr.setups)
	e2e["rss_peak_mb"] = hr.rssMB

	res := &result{Attempted: len(hr.samples), Failed: failedReqs.n, Metrics: map[string]metric{}}
	if cfg.trace {
		runtime.GOMAXPROCS(procs)
		layers, err := measureLayers(cfg, wl, refs, hr, e2e["latency_p50_ms"], &bad, stderr)
		runtime.GOMAXPROCS(defaultProcs)
		if err != nil {
			return nil, err
		}
		units := perLayerUnits()
		for name, v := range layers {
			res.Metrics[name] = metric{Value: v, Unit: units[name]}
		}
	} else {
		for name, v := range e2e {
			res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
	}
	for _, m := range append(failedReqs.msgs, bad.msgs...) {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", m)
	}
	res.Correct = failedReqs.n == 0 && bad.n == 0
	fmt.Fprintf(stderr, "perfbench: %s: %d requests in %d slices, %d failed, %d other check failures, error_rate %.4g, setup %v s\n",
		wl.name, res.Attempted, nSlices, res.Failed, bad.n, ratio(float64(res.Failed), float64(res.Attempted)), hr.setups)
	return res, nil
}

// A slice of the window lasts at least sliceSeconds and holds at least
// sliceRequests requests, so its p90 has ten samples beyond it. Each
// end-to-end timing is the median of its per-slice values: load from
// elsewhere on the host that slows less than half of the window's slices
// does not move it.
const (
	sliceSeconds  = 2
	sliceRequests = 100
)

// cutSlices cuts the window's samples into consecutive slices of whole
// rounds of the stream's mix, each at least sliceSeconds long and
// sliceRequests large; a smaller remainder joins the last slice. It returns
// the slices' end offsets.
func cutSlices(samples []sample, round int) []int {
	var ends []int
	lo := 0
	for i, s := range samples {
		if (s.index+1)%round == 0 && i+1-lo >= sliceRequests &&
			s.end.Sub(samples[lo].start).Seconds() >= sliceSeconds {
			ends = append(ends, i+1)
			lo = i + 1
		}
	}
	if n := len(ends); n == 0 {
		ends = []int{len(samples)}
	} else if ends[n-1] < len(samples) {
		ends[n-1] = len(samples)
	}
	return ends
}

// windowMetrics computes throughput and the latency percentiles of the
// successful samples in each slice of the window and returns the median
// of each over the slices, with the slice count. The tail is p90: a
// 20-second window of exact-search holds about 600 requests, so p90 is the
// highest percentile with ten samples beyond it in every workload's run.
func windowMetrics(samples []sample, ok []bool, round int) (map[string]float64, int) {
	var tput, p50, p90 []float64
	lo := 0
	ends := cutSlices(samples, round)
	for _, hi := range ends {
		var lat []float64
		last := samples[lo].start
		for i := lo; i < hi; i++ {
			if ok[i] {
				lat = append(lat, float64(samples[i].end.Sub(samples[i].start).Nanoseconds())/1e6)
				last = samples[i].end
			}
		}
		if len(lat) > 0 {
			tput = append(tput, float64(len(lat))/last.Sub(samples[lo].start).Seconds())
		} else {
			tput = append(tput, 0)
		}
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		lo = hi
	}
	return map[string]float64{
		"throughput_rps": median(tput),
		"latency_p50_ms": median(p50),
		"latency_p90_ms": median(p90),
	}, len(ends)
}

// measureHTTP sets up the server setupRuns times (start, /readyz, warm-up),
// then drives the last one for the window. Failed warm-up answers are
// recorded in bad.
func measureHTTP(cfg config, wl *workload, refs *references, bad *failures) (*httpRun, error) {
	hr := &httpRun{}
	var srv *proc
	var c *client
	bases := make([]string, len(wl.warmup))
	for k := 0; k < setupRuns; k++ {
		if srv != nil {
			c.hc.CloseIdleConnections()
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.serveBin); err != nil {
			return nil, err
		}
		if err := srv.waitReady(); err != nil {
			srv.stop()
			return nil, err
		}
		c = newClient(srv.base)
		warm := make([]sample, len(wl.warmup))
		for i, r := range wl.warmup {
			warm[i] = send(c, r, "")
		}
		hr.setups = append(hr.setups, time.Since(t0).Seconds())
		for i, s := range warm {
			err := s.err
			if err == nil {
				err = checkResponse(refs, wl.warmup[i], s.code, s.body)
			}
			if err != nil {
				bad.add("setup %d warm-up request %d: %v", k, i, err)
			}
			bases[i] = fingerprintOf(s.body)
		}
	}
	defer srv.stop()
	defer c.hc.CloseIdleConnections()

	var err error
	if hr.stats[0], err = srv.stats(); err != nil {
		return nil, err
	}
	if hr.samples, err = closedLoop(c, wl.stream, bases, cfg.window); err != nil {
		return nil, err
	}
	hr.reqs = wl.stream.reqs[:len(hr.samples)]
	if hr.stats[1], err = srv.stats(); err != nil {
		return nil, err
	}
	if hr.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return hr, nil
}

// measureLayers replays the HTTP run's requests in-process twice, spans on
// and off, checks the replayed answers, the Session counters and the
// search counts, dumps the spans, and returns the per-layer metrics.
func measureLayers(cfg config, wl *workload, refs *references, hr *httpRun, httpP50 float64,
	bad *failures, stderr io.Writer) (map[string]float64, error) {
	on := replay(wl, len(hr.samples), true)
	off := replay(wl, len(hr.samples), false)
	for _, rp := range []*replayRun{on, off} {
		checkReplay(rp, wl, refs, bad)
	}
	checkSessionStats(on, hr, bad)
	if wl.name == "exact-search" {
		checkCounts(on, off, hr, bad)
	}

	ls := layerMetrics(on)
	m := ls.metrics
	onP50, offP50 := timedP50(on), timedP50(off)
	m["server.http_ms"] = httpP50 - onP50
	m["load.trace_overhead_ms"] = onP50 - offP50
	m["server.rejected"] = 0
	for _, s := range hr.samples {
		if s.code == 429 {
			m["server.rejected"]++
		}
	}

	printLayers(stderr, wl.name, ls.selfByLayer, onP50, offP50)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, cfg.seed))
		if err := writeSpans(path, on); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	return m, nil
}

// timedP50 is the replay's request p50 in ms over the timed requests.
func timedP50(rp *replayRun) float64 {
	var d []float64
	for _, rr := range rp.reqs {
		if !rr.warmup {
			d = append(d, float64(rr.dur.Nanoseconds())/1e6)
		}
	}
	return percentile(d, 50)
}

// checkReplay checks every replayed answer against its reference: the
// in-process path must be as correct as the served one.
func checkReplay(rp *replayRun, wl *workload, refs *references, bad *failures) {
	for _, rr := range rp.reqs {
		req := wl.stream.reqs[rr.index]
		if rr.warmup {
			req = wl.warmup[rr.index]
		}
		for i, j := range req.jobs {
			err := rr.errs[i]
			if rr.resps[i] != nil {
				err = checkAnswer(refs.get(j.key), j.solver, rr.resps[i])
			}
			if err != nil {
				bad.add("replayed request %d (warm-up %v) job %d: %v", rr.index, rr.warmup, i, err)
			}
		}
	}
}

// checkSessionStats requires the Session counters to agree three ways over
// the timed requests: the HTTP run's /v1/stats deltas, the replay's
// Session.Stats deltas, and the outcomes the replay predicted per call.
func checkSessionStats(rp *replayRun, hr *httpRun, bad *failures) {
	type counts struct{ hits, misses, deltas, warmHits, warmMisses int }
	delta := func(a, b solve.SessionStats) counts {
		return counts{b.Hits - a.Hits, b.Misses - a.Misses, b.DeltaDerives - a.DeltaDerives,
			b.WarmHits - a.WarmHits, b.WarmMisses - a.WarmMisses}
	}
	served := delta(hr.stats[0].Session, hr.stats[1].Session)
	replayed := delta(rp.afterWarmup, rp.atEnd)
	if served != replayed {
		bad.add("session counters disagree: /v1/stats %+v, replay %+v", served, replayed)
	}
	st, p := rp.atEnd, rp.predicted
	if st.Hits != p["hit"] || st.Misses != p["miss"]+p["delta"] || st.DeltaDerives != p["delta"] {
		bad.add("session outcomes %+v differ from the predicted %v", st, p)
	}
}

// checkCounts requires the engine's search counts to repeat exactly: per
// timed request, between the two replays, and against the HTTP answers.
func checkCounts(on, off *replayRun, hr *httpRun, bad *failures) {
	type count struct{ checked, pruned, passes int }
	collect := func(rp *replayRun) map[int]count {
		out := make(map[int]count)
		for _, rr := range rp.reqs {
			if !rr.warmup {
				c := rr.results[0].Counters
				out[rr.index] = count{c.Checked, c.Pruned, c.OraclePasses}
			}
		}
		return out
	}
	a, b := collect(on), collect(off)
	for i, ca := range a {
		if cb := b[i]; ca != cb {
			bad.add("request %d: search counts %+v in one replay, %+v in the other", i, ca, cb)
		}
	}
	for _, s := range hr.samples {
		var resp server.SolveResponse
		if !s.ok() || json.Unmarshal(s.body, &resp) != nil {
			continue // already a failed request
		}
		ca := a[s.index]
		if resp.Counters.Checked != ca.checked || resp.Counters.Pruned != ca.pruned {
			bad.add("request %d: served checked/pruned %d/%d, replayed %d/%d", s.index,
				resp.Counters.Checked, resp.Counters.Pruned, ca.checked, ca.pruned)
		}
	}
}

// printLayers writes the timed requests' self time per layer, largest
// first, and the tracing overhead.
func printLayers(w io.Writer, name string, self map[string]float64, onP50, offP50 float64) {
	var total float64
	var names []string
	for l, v := range self {
		total += v
		names = append(names, l)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(w, "perfbench: %s self time by layer (timed requests):", name)
	for _, l := range names {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*ratio(self[l], total))
	}
	fmt.Fprintf(w, "\nperfbench: replay request p50 %.4f ms with spans, %.4f ms without\n", onP50, offP50)
}

// writeSpans dumps every span of the replay as JSON lines.
func writeSpans(path string, rp *replayRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rp.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
