package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"secureview/internal/server"
)

// proc is a running secureview-serve process on a loopback port.
type proc struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the process's stdout hits EOF
}

// startServer launches the server binary on a free loopback port and
// returns once it has printed its address.
func startServer(bin string) (*proc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			addr <- sc.Text()
		}
		close(addr)
		// Keep reading, so the server never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case line, ok := <-addr:
		const prefix = "secureview-serve listening on "
		if ok && strings.HasPrefix(line, prefix) {
			p.base = strings.TrimPrefix(line, prefix)
			return p, nil
		}
		p.stop()
		return nil, fmt.Errorf("server did not report its address (got %q)", line)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("server did not report its address within 30s")
	}
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready within 30s", p.base)
}

func (p *proc) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := http.Get(p.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop asks the server to shut down, kills it if it has not exited within
// ten seconds, and waits until it has.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	_ = p.cmd.Wait()
}

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sample is one request as sent: its position in the stream, when it was
// sent, and what came back.
type sample struct {
	index      int
	start, end time.Time
	code       int
	body       []byte
	err        error
}

func (s *sample) ok() bool { return s.err == nil && s.code >= 200 && s.code <= 299 }

// withBase splices "base" into a chained request body.
func withBase(body []byte, base string) []byte {
	out := make([]byte, 0, len(body)+len(base)+12)
	out = append(out, `{"base":`...)
	out = strconv.AppendQuote(out, base)
	out = append(out, ',')
	return append(out, body[1:]...)
}

// fingerprintOf extracts a solve response's fingerprint ("" if none).
func fingerprintOf(body []byte) string {
	var r struct {
		Fingerprint string `json:"fingerprint"`
	}
	_ = json.Unmarshal(body, &r) // a malformed reply fails its own check
	return r.Fingerprint
}

func send(c *client, r request, base string) sample {
	body := r.body
	if r.chained {
		body = withBase(body, base)
	}
	s := sample{start: time.Now()}
	s.code, s.body, s.err = c.post(r.path, body)
	s.end = time.Now()
	return s
}

// closedLoop sends the stream's requests one after another until d has
// elapsed and the stream's current round is complete. bases[k] is the
// fingerprint warm-up request k returned, where edit chain k starts.
func closedLoop(c *client, st *stream, bases []string, d time.Duration) ([]sample, error) {
	var out []sample
	last := append([]string(nil), bases...)
	deadline := time.Now().Add(d)
	for i := 0; i%st.round != 0 || time.Now().Before(deadline); i++ {
		r, err := st.at(i)
		if err != nil {
			return nil, err
		}
		var s sample
		if r.chained {
			s = send(c, r, last[r.chain])
			last[r.chain] = fingerprintOf(s.body)
		} else {
			s = send(c, r, "")
		}
		s.index = i
		out = append(out, s)
	}
	return out, nil
}
