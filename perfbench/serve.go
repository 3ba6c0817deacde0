package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quiet counts the benchmark's requests to the server and the checks of
// their replies, so that the host reference runs only while both the
// server and the checker are idle.
type quiet struct {
	inflight, started atomic.Int64
}

func (q *quiet) begin() {
	q.started.Add(1)
	q.inflight.Add(1)
}

func (q *quiet) end() { q.inflight.Add(-1) }

// idleRun runs f if no request is in flight and reports whether none
// was sent while it ran either.
func (q *quiet) idleRun(f func() time.Duration) (time.Duration, bool) {
	n := q.started.Load()
	if q.inflight.Load() != 0 {
		return 0, false
	}
	d := f()
	return d, q.started.Load() == n && q.inflight.Load() == 0
}

// fluxserve is one child server process.
type fluxserve struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts fluxserve at its defaults over the DTD file and
// returns once /healthz answers.
func startServer(ctx context.Context, bin, dtdPath string) (*fluxserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-dtd", dtdPath, "-addr", addr)
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fluxserve: %w", err)
	}
	s := &fluxserve{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.exited)
	}()
	c := newConn()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("fluxserve exited before it was ready")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("fluxserve not ready after 10s: %v", err)
		}
	}
}

// stop asks the server to drain, kills it if it has not exited within
// five seconds, and waits for it either way.
func (s *fluxserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// newConn is a client holding at most one connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// statusError is a reply other than 200 OK.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// do sends one request and returns the body of a 200 reply.
func do(c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %w", method, url, &statusError{resp.StatusCode, strings.TrimSpace(string(b))})
	}
	return b, nil
}

// registerAll PUTs every query of the inputs.
func registerAll(c *http.Client, base string, qs []querySpec) error {
	for _, q := range qs {
		if _, err := do(c, http.MethodPut, base+"/queries/"+q.Name, []byte(q.Src)); err != nil {
			return err
		}
	}
	return nil
}

// evalReply is the part of an /eval response the benchmark reads.
type evalReply struct {
	DurationMicros int64 `json:"duration_us"`
	Results        []struct {
		Query  string `json:"query"`
		Output string `json:"output"`
		Error  string `json:"error"`
		Stats  struct {
			PeakBufferBytes int64 `json:"peak_buffer_bytes"`
		} `json:"stats"`
	} `json:"results"`
}

// evalChecker checks /eval replies against the oracle. A churned name
// may carry either of its versions or be absent; every other name must
// be present with its one version.
type evalChecker struct {
	orc  *oracle
	orig map[string]string
	alt  map[string]string
}

func newEvalChecker(orc *oracle, queries, alts []querySpec) *evalChecker {
	c := &evalChecker{orc: orc, orig: map[string]string{}, alt: map[string]string{}}
	for _, q := range queries {
		c.orig[q.Name] = q.Src
	}
	for _, q := range alts {
		c.alt[q.Name] = q.Src
	}
	return c
}

// check returns the server's pass time and the buffer peaks of the
// reply, which must carry want unchurned queries.
func (c *evalChecker) check(doc int, body []byte, want int) (time.Duration, peaks, error) {
	var rep evalReply
	var pk peaks
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, pk, fmt.Errorf("decoding /eval reply: %w", err)
	}
	seen := 0
	for _, r := range rep.Results {
		src, ok := c.orig[r.Query]
		if !ok {
			return 0, pk, fmt.Errorf("reply names unknown query %q", r.Query)
		}
		if r.Error != "" {
			return 0, pk, fmt.Errorf("query %s: %s", r.Query, r.Error)
		}
		out := []byte(r.Output)
		alt, churned := c.alt[r.Query]
		if !c.orc.ok(src, doc, out) && !(churned && c.orc.ok(alt, doc, out)) {
			return 0, pk, fmt.Errorf("query %s on document %d: output differs from the reference", r.Query, doc)
		}
		if !churned {
			seen++
		}
		pk.add(r.Stats.PeakBufferBytes)
	}
	if seen != want {
		return 0, pk, fmt.Errorf("reply carries %d of the %d unchurned queries", seen, want)
	}
	return time.Duration(rep.DurationMicros) * time.Microsecond, pk, nil
}

// evalPhase is one open-loop run of /eval requests and its checked
// replies.
type evalPhase struct {
	samples []sample
	pass    []time.Duration // server-reported, per successful request
	bytes   int64
	peaks   peaks
	failed  int
}

// runEvals posts the scheduled documents over one connection and checks
// the replies off the request path.
func runEvals(ctx context.Context, c *http.Client, q *quiet, base string, in *inputs, chk *evalChecker, sched []arrival, m *measured) *evalPhase {
	due := make([]time.Duration, len(sched))
	for i, a := range sched {
		due[i] = a.Due
	}
	type reply struct {
		i    int
		body []byte
	}
	replies := make(chan reply, len(sched)) // one slot per scheduled request: the sender never blocks
	ph := &evalPhase{}
	var mu sync.Mutex
	checkErr := make([]error, len(sched))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range replies {
			q.begin() // the check shares this machine with the reference too
			pass, peak, err := chk.check(sched[r.i].Doc, r.body, len(chk.orig)-len(chk.alt))
			q.end()
			mu.Lock()
			checkErr[r.i] = err
			if err == nil {
				ph.pass = append(ph.pass, pass)
				ph.peaks.merge(peak)
			}
			mu.Unlock()
		}
	}()
	ph.samples = openLoop(ctx, due, 1, func(i int) error {
		q.begin()
		body, err := do(c, http.MethodPost, base+"/eval", in.Docs[sched[i].Doc].Data)
		q.end()
		if err == nil {
			replies <- reply{i, body}
		}
		return err
	})
	close(replies)
	wg.Wait()
	for i, s := range ph.samples {
		m.attempted++
		if err := s.err; err != nil || checkErr[i] != nil {
			if err == nil {
				err = checkErr[i]
			}
			ph.failed++
			m.fail("eval %d: %v", i, err)
			ph.samples[i].err = err
			continue
		}
		ph.bytes += int64(len(in.Docs[sched[i].Doc].Data))
	}
	return ph
}

// runChurn plays the churn schedule over its own connection and returns
// the latency of every write.
func runChurn(ctx context.Context, c *http.Client, q *quiet, base string, ops []churnOp, m *measured) []sample {
	due := make([]time.Duration, len(ops))
	for i, op := range ops {
		due[i] = op.Due
	}
	samples := openLoop(ctx, due, 1, func(i int) error {
		op := ops[i]
		q.begin()
		defer q.end()
		if op.Delete {
			_, err := do(c, http.MethodDelete, base+"/queries/"+op.Name, nil)
			return err
		}
		_, err := do(c, http.MethodPut, base+"/queries/"+op.Name, []byte(op.Src))
		return err
	})
	for i, s := range samples {
		m.attempted++
		if s.err != nil {
			m.fail("churn %d: %v", i, s.err)
		}
	}
	return samples
}

// stepVerdict judges one ramp step: its p95 latency (failed requests
// count as missing the limit) and whether the generator fell steadily
// further behind.
func stepVerdict(ss []sample, period time.Duration) (p95 time.Duration, growing bool) {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = float64(s.latency())
		if s.err != nil {
			lat[i] = math.Inf(1)
		}
	}
	t, _ := tail(sortedCopy(lat), 95) // tail only fails on no samples
	q := len(ss) / 4
	first, last := make([]float64, 0, q), make([]float64, 0, q)
	for i := 0; i < q; i++ {
		first = append(first, float64(ss[i].lag()))
		last = append(last, float64(ss[len(ss)-1-i].lag()))
	}
	growth := median(sortedCopy(last)) - median(sortedCopy(first))
	return time.Duration(min(t.Value, float64(time.Hour))), growth > float64(period)
}

// sustainedRate interpolates, between the last step that met the limit
// and the first that did not, the rate at which p95 reaches the limit.
func sustainedRate(passRate float64, passP95 time.Duration, failRate float64, failP95 time.Duration, limit time.Duration) float64 {
	if failRate <= passRate {
		return passRate
	}
	failP95 = max(failP95, limit)
	if failP95 <= passP95 {
		return passRate
	}
	f := float64(limit-passP95) / float64(failP95-passP95)
	return passRate + (failRate-passRate)*min(max(f, 0), 1)
}

func runServe(ctx context.Context, cfg config, in *inputs, orc *oracle, budget time.Duration) (*measured, error) {
	m := &measured{workload: in.Workload}
	dtdPath := filepath.Join(cfg.workdir, "catalog.dtd")
	if err := os.WriteFile(dtdPath, []byte(in.DTDs[dtdCatalog]), 0o644); err != nil {
		return nil, err
	}
	var srv *fluxserve
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, cfg.fluxserve, dtdPath); err != nil {
			return nil, err
		}
		c := newConn()
		err = registerAll(c, srv.base, in.Queries)
		c.CloseIdleConnections()
		if err != nil {
			srv.stop()
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	defer srv.stop()

	r := newSeeded(in.Seed, "serve-schedule")
	chk := newEvalChecker(orc, in.Queries, in.Alts)
	evalConn, churnConn := newConn(), newConn()
	defer evalConn.CloseIdleConnections()
	defer churnConn.CloseIdleConnections()
	rss := startRSS(srv.cmd.Process.Pid)
	steal := stealSeconds()
	href := newHostRef()
	q := &quiet{}

	// Nominal phase: the fixed-rate eval stream beside the churn stream.
	// The host reference runs beside them whenever no request is in
	// flight; a sample counts only if none was sent while it ran. It
	// also runs before every ramp step, while the server is idle.
	nominal := time.Duration(float64(budget) * serveNominalShare)
	sched := evalSchedule(r, serveNominal, nominal, len(in.Docs))
	churn := churnSchedule(r, in, serveChurnRate, nominal)
	var churnSamples []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		churnSamples = runChurn(ctx, churnConn, q, srv.base, churn, m)
	}()
	stopRef := make(chan struct{})
	var refs []float64 // host reference samples, ms
	go func() {
		defer wg.Done()
		t := time.NewTicker(serveRefEvery)
		defer t.Stop()
		for {
			select {
			case <-stopRef:
				return
			case <-t.C:
				if d, ok := q.idleRun(href.once); ok {
					refs = append(refs, ms(d))
				}
			}
		}
	}()
	ph := runEvals(ctx, evalConn, q, srv.base, in, chk, sched, m)
	close(stopRef)
	wg.Wait()
	nomN := len(refs) // refs[nomN:] are the ramp's
	// A PUT compiles and registers a query; a DELETE only drops one and
	// is faster. A median over both would depend on which kind sits in
	// the middle, so register is the PUTs and the DELETEs go on the
	// summary line.
	for i, s := range churnSamples {
		if s.err != nil {
			continue
		}
		if churn[i].Delete {
			m.unregister = append(m.unregister, ms(s.latency()))
		} else {
			m.register = append(m.register, timing{ms: ms(s.latency())})
		}
	}
	var serviceMs float64
	for _, s := range ph.samples {
		if s.err == nil {
			m.eval = append(m.eval, timing{ms: ms(s.latency())})
			m.service = append(m.service, timing{ms: ms(s.done - s.sent)})
			serviceMs += ms(s.done - s.sent)
		}
	}
	for _, p := range ph.pass {
		m.pass = append(m.pass, timing{ms: ms(p)})
	}
	m.inBytes = ph.bytes
	m.peaks = ph.peaks
	if len(m.service) == 0 {
		return nil, fmt.Errorf("no /eval request of the nominal phase succeeded")
	}

	// Ramp: starting from a share of what one connection could carry,
	// move the rate step by step until one step met the limit and one
	// missed it (a miss is a p95 over the limit or a growing backlog),
	// then bisect between the highest step that met it and the lowest
	// that missed it above that, while time allows.
	end := time.Now().Add(budget - nominal)
	var passRate, failRate float64
	var passP95, failP95 time.Duration
	// probe runs one step at rate; ran is false when the step no longer
	// fits in the time left.
	probe := func(rate float64) (ok, ran bool) {
		if time.Now().Add(serveRampStep).After(end) {
			return false, false
		}
		for i := 0; i < refBlockReps; i++ {
			refs = append(refs, ms(href.once()))
		}
		period := time.Duration(float64(time.Second) / rate)
		ph := runEvals(ctx, evalConn, q, srv.base, in, chk, evalSchedule(r, rate, serveRampStep, len(in.Docs)), m)
		m.peaks.merge(ph.peaks)
		p95, growing := stepVerdict(ph.samples, period)
		fmt.Fprintf(os.Stderr, "perfbench: ramp %.1f/s p95=%.1fms growing=%v\n", rate, ms(p95), growing)
		if p95 > serveLimit || growing {
			if failRate == 0 || rate < failRate {
				failRate, failP95 = rate, p95
			}
			return false, true
		}
		if rate > passRate {
			passRate, passP95 = rate, p95
		}
		return true, true
	}
	for rate := serveRampStartShare * float64(len(m.service)) / (serviceMs / 1000); passRate == 0 || failRate == 0; {
		ok, ran := probe(rate)
		if !ran {
			break
		}
		if ok {
			rate *= serveRampFactor
		} else {
			rate /= serveRampFactor
		}
	}
	for failRate > 0 && passRate > 0 {
		if _, ran := probe((passRate + failRate) / 2); !ran {
			break
		}
	}
	m.sustained = sustainedRate(passRate, passP95, failRate, failP95, serveLimit)
	// The nominal metrics are in the ref of the samples beside the
	// nominal phase; the sustained rate is in the ref of the blocks
	// before the ramp steps, which follow host drift over the run more
	// closely than one ref for the whole run did.
	if nomN == 0 || len(refs) == nomN {
		return nil, fmt.Errorf("host reference: %d samples beside the nominal phase, %d before ramp steps", nomN, len(refs)-nomN)
	}
	m.refBlocks = refs
	nominalRef := median(sortedCopy(refs[:nomN]))
	for _, ts := range [][]timing{m.register, m.eval, m.service, m.pass} {
		for i := range ts {
			ts[i].ref = nominalRef
		}
	}
	m.sustainedRef = median(sortedCopy(refs[nomN:]))
	m.steal = stealSeconds() - steal
	var err error
	if m.rssMB, err = rss.finish(); err != nil {
		m.fail("%v", err)
	}
	if m.sustained == 0 {
		return nil, fmt.Errorf("no ramp step met the %v limit", serveLimit)
	}
	return m, nil
}

// newSeeded derives an independent random stream from the seed.
func newSeeded(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
