package fluxquery

// Cancellation and fault-injection suite: the tentpole acceptance tests
// of the failure model. Cancellation must terminate a mid-stream pass
// promptly at any pipeline width with every riding plan reporting the
// context error (never a silently truncated result); injected faults at
// every site must be provably reachable and degrade per the model; and
// a cancelled or faulted pass must leave the process fully reusable —
// no leaked goroutines, no live spill segments, byte-identical output
// on the next clean run.

import (
	"bytes"
	"context"
	"errors"
	"io"
	goruntime "runtime"
	"testing"
	"time"

	"fluxquery/internal/faultinj"
	"fluxquery/internal/workload"
)

// slowReader throttles a document stream so a pass lasts long enough
// for a mid-stream cancel to land.
type slowReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	n, err := s.r.Read(p)
	time.Sleep(s.delay)
	return n, err
}

// settleGoroutines fails the test if the goroutine count does not
// return to (near) base within the deadline — the leak check behind
// "cancelled passes leave the process reusable".
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, base %d\n%s", n, base, buf[:goruntime.Stack(buf, true)])
		}
		goruntime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidStreamCancelDifferential: at GOMAXPROCS 1 (the inline pass), 4
// and 8 (staged), cancelling a context mid-pass terminates Run within
// 100ms, the pass and every riding plan report the context error, and a
// follow-up clean run over the same set produces output byte-identical
// to the single-plan reference.
func TestMidStreamCancelDifferential(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	doc := genCorpusDoc(t, c, 120_000)
	refPlan := MustCompile(c.Query, c.DTD, Options{})
	ref, _, err := refPlan.ExecuteString(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}

	base := goroutineBase()
	for _, width := range []int{1, 4, 8} {
		t.Run(widthName(width), func(t *testing.T) {
			withProcs(t, width)
			set := NewStreamSet(d)
			const nq = 4
			outs := make([]*bytes.Buffer, nq)
			regs := make([]*StreamQuery, nq)
			for i := range outs {
				outs[i] = &bytes.Buffer{}
				p := MustCompile(c.Query, c.DTD, Options{})
				if regs[i], err = set.Register(p, outs[i]); err != nil {
					t.Fatal(err)
				}
			}

			// Cancel mid-pass: the throttled stream makes the pass last
			// hundreds of milliseconds; the timer fires well inside it.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelledAt time.Time
			timer := time.AfterFunc(25*time.Millisecond, func() {
				cancelledAt = time.Now()
				cancel()
			})
			defer timer.Stop()
			err := set.RunContext(ctx, &slowReader{r: bytes.NewReader(doc), chunk: 2048, delay: time.Millisecond})
			latency := time.Since(cancelledAt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pass error = %v, want context.Canceled", err)
			}
			if cancelledAt.IsZero() {
				t.Fatal("pass finished before the cancel landed; slow the reader down")
			}
			if latency > 100*time.Millisecond {
				t.Errorf("cancel-to-return latency %v, want <= 100ms", latency)
			}
			for i, reg := range regs {
				if _, rerr := reg.Stats(); !errors.Is(rerr, context.Canceled) {
					t.Errorf("query %d result = %v, want context.Canceled (no silent truncation)", i, rerr)
				}
			}

			// The set stays usable: a clean run is byte-identical to the
			// single-plan reference for every query.
			for _, b := range outs {
				b.Reset()
			}
			if err := set.Run(bytes.NewReader(doc)); err != nil {
				t.Fatalf("clean run after cancel: %v", err)
			}
			for i, b := range outs {
				if b.String() != ref {
					t.Errorf("query %d output differs from reference after cancelled pass", i)
				}
			}
		})
	}
	settleGoroutines(t, base)
}

// TestDeadlineExpiryTerminatesPass: a context deadline behaves like a
// cancel — prompt termination with context.DeadlineExceeded on the
// pass and on every plan, inline and staged.
func TestDeadlineExpiryTerminatesPass(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	doc := genCorpusDoc(t, c, 120_000)
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		set := NewStreamSet(d)
		reg, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		start := time.Now()
		err = set.RunContext(ctx, &slowReader{r: bytes.NewReader(doc), chunk: 2048, delay: time.Millisecond})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("procs=%d: pass error = %v, want context.DeadlineExceeded", procs, err)
		}
		if el := time.Since(start); el > 200*time.Millisecond {
			t.Errorf("procs=%d: deadline expiry took %v to terminate the pass", procs, el)
		}
		if _, rerr := reg.Stats(); !errors.Is(rerr, context.DeadlineExceeded) {
			t.Errorf("procs=%d: query result = %v, want context.DeadlineExceeded", procs, rerr)
		}
	}
}

// TestExecuteContextCancel: the single-plan entry point observes its
// context too (managed runs; the baseline engines are documented not
// to).
func TestExecuteContextCancel(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	doc := genCorpusDoc(t, c, 120_000)
	p := MustCompile(c.Query, c.DTD, Options{
		BufferBudget: 1 << 20,
		BufferPolicy: BufferSpill,
	})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := p.ExecuteContext(ctx, &slowReader{r: bytes.NewReader(doc), chunk: 2048, delay: time.Millisecond}, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteContext error = %v, want context.Canceled", err)
	}
	// The plan stays usable after the cancelled run.
	if _, err := p.Execute(bytes.NewReader(doc), io.Discard); err != nil {
		t.Fatalf("clean run after cancel: %v", err)
	}
}

// TestCancelUnderBackpressure: cancellation reaches a pass parked in a
// buffer-manager backpressure gate wait — the scenario Bind's watcher
// goroutine exists for.
func TestCancelUnderBackpressure(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	_, refSt := budgetRef(t, c, doc)
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewBufferManager(refSt.PeakBufferBytes/2, BufferBackpressure, t.TempDir())
	defer mgr.Close()

	// holdSet keeps reservations live so the cancelled set's gate has a
	// reason to park.
	holdSet := NewStreamSet(d)
	holdSet.SetBuffers(mgr)
	if _, err := holdSet.Register(MustCompile(c.Query, c.DTD, Options{}), io.Discard); err != nil {
		t.Fatal(err)
	}
	hold := make(chan error, 1)
	go func() {
		hold <- holdSet.Run(&slowReader{r: bytes.NewReader(doc), chunk: 1024, delay: 2 * time.Millisecond})
	}()

	set := NewStreamSet(d)
	set.SetBuffers(mgr)
	if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), io.Discard); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	if err := set.RunContext(ctx, bytes.NewReader(doc)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("pass error = %v, want nil or context.Canceled", err)
	}
	if err := <-hold; err != nil {
		t.Fatalf("holding pass: %v", err)
	}
	if mt := mgr.Metrics(); mt.SpillSegsLive != 0 {
		t.Errorf("%d spill segments leaked", mt.SpillSegsLive)
	}
}

// goroutineBase samples the goroutine count after a settling pause, so
// straggler goroutines of earlier tests do not count against the leak
// checks.
func goroutineBase() int {
	goruntime.GC()
	time.Sleep(20 * time.Millisecond)
	return goruntime.NumGoroutine() + 2
}

// widthName labels a GOMAXPROCS subtest: "sequential" is the inline pass
// at GOMAXPROCS=1, "parallelN" the staged pass at GOMAXPROCS=N.
func widthName(w int) string {
	return map[int]string{1: "sequential", 4: "parallel4", 8: "parallel8"}[w]
}

// cellWidths are the GOMAXPROCS values a fault site's cells run at. The
// ring sites exist only in the staged pass; every other site runs in
// both forms.
func cellWidths(site string) []int {
	if site == faultinj.SiteRingToken || site == faultinj.SiteRingEvent {
		return []int{4}
	}
	return []int{1, 4}
}

// TestFaultMatrix: every fault site × mode. A cell passes only when the
// site was provably reached (injection counter advanced), the pass
// degraded per the failure model (error and short-write faults surface
// as a pass error wrapping faultinj.ErrInjected; latency faults merely
// delay), no spill segments stayed live, and a clean follow-up run is
// byte-identical to the reference — the process is reusable after any
// injected failure.
func TestFaultMatrix(t *testing.T) {
	defer faultinj.Reset()
	h := newMatrixHarness(t)
	base := goroutineBase()
	for _, site := range faultinj.Sites() {
		for _, mode := range faultinj.Modes() {
			t.Run(site+"/"+mode.String(), func(t *testing.T) {
				for _, procs := range cellWidths(site) {
					withProcs(t, procs)
					faultinj.Reset()
					f := faultinj.Fault{Mode: mode}
					if mode == faultinj.ModeLatency {
						f.Latency = 100 * time.Microsecond
					}
					if err := faultinj.Arm(site, f); err != nil {
						t.Fatal(err)
					}
					err := h.run(t, site)
					injected := faultinj.Injected(site)
					faultinj.Reset()
					if injected == 0 {
						t.Fatalf("procs=%d: site %s never reached under its workload — the hook has gone dead", procs, site)
					}
					if mode == faultinj.ModeLatency {
						if err != nil {
							t.Fatalf("procs=%d: latency fault failed the pass: %v", procs, err)
						}
					} else {
						if err == nil {
							t.Fatalf("procs=%d: %s fault at %s was swallowed: pass succeeded", procs, mode, site)
						}
						if !errors.Is(err, faultinj.ErrInjected) {
							t.Fatalf("procs=%d: pass error lost the injection chain: %v", procs, err)
						}
					}
					if live := h.mgr.Metrics().SpillSegsLive; live != 0 {
						t.Errorf("procs=%d: %d spill segments live after the faulted pass", procs, live)
					}
					h.verifyClean(t, site)
				}
			})
		}
	}
	settleGoroutines(t, base)
}

// TestSpillTransientRetryEndToEnd: an exactly-once spill-write fault is
// absorbed by the store's retry loop — the budgeted pass succeeds with
// byte-identical output and the retry is visible in the manager
// metrics (flux_spill_retries_total's source).
func TestSpillTransientRetryEndToEnd(t *testing.T) {
	defer faultinj.Reset()
	h := newMatrixHarness(t)
	if err := faultinj.ArmSpec("spill.write:error:1"); err != nil {
		t.Fatal(err)
	}
	err := h.run(t, faultinj.SiteSpillWrite)
	faultinj.Reset()
	if err != nil {
		t.Fatalf("transient spill fault not absorbed: %v", err)
	}
	if got := h.mgr.Metrics().SpillRetries; got == 0 {
		t.Error("retry not counted in manager metrics")
	}
}

// TestTransientFirstReadErrorSurfaces: an exactly-once fault on the very
// first body read fails the pass. Regression test for the tokenizer's
// BOM probe discarding its fill error, which silently re-read the
// stream past a failed read — unlike spill I/O, an input-stream error
// has no retry contract, so it must surface, not be absorbed.
func TestTransientFirstReadErrorSurfaces(t *testing.T) {
	defer faultinj.Reset()
	h := newMatrixHarness(t)
	if err := faultinj.ArmSpec("body.read:error:1"); err != nil {
		t.Fatal(err)
	}
	err := h.run(t, faultinj.SiteBodyRead)
	injected := faultinj.Injected(faultinj.SiteBodyRead)
	faultinj.Reset()
	if !errors.Is(err, faultinj.ErrInjected) {
		t.Fatalf("one-shot first-read fault not surfaced: %v", err)
	}
	if injected != 1 {
		t.Fatalf("injected %d faults, want exactly 1", injected)
	}
	h.verifyClean(t, faultinj.SiteBodyRead)
}

// matrixHarness pre-builds one workload per fault site family: a
// budgeted spilling pass (spill.*), a staged shared pass (ring.*),
// and a pass reading through a faultinj.Reader (body.read).
type matrixHarness struct {
	mgr      *BufferManager
	spill    *Plan
	spillDoc []byte
	spillRef string

	ringSet  *StreamSet
	ringOuts []*bytes.Buffer
	ringDoc  []byte
	ringRef  string

	body    *Plan
	bodyDoc []byte
	bodyRef string
}

func newMatrixHarness(t *testing.T) *matrixHarness {
	t.Helper()
	h := &matrixHarness{}

	sc := workload.ByName("xmark-q8-join")
	h.spillDoc = genCorpusDoc(t, sc, 30_000)
	var refSt Stats
	h.spillRef, refSt = budgetRef(t, sc, h.spillDoc)
	h.mgr = NewBufferManager(refSt.PeakBufferBytes/2, BufferSpill, t.TempDir())
	t.Cleanup(func() { h.mgr.Close() })
	h.spill = MustCompile(sc.Query, sc.DTD, Options{Buffers: h.mgr})

	rc := workload.ByName("xmp-q3-weak")
	h.ringDoc = genCorpusDoc(t, rc, 60_000)
	var err error
	h.ringRef, _, err = MustCompile(rc.Query, rc.DTD, Options{}).ExecuteString(string(h.ringDoc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(rc.DTD)
	if err != nil {
		t.Fatal(err)
	}
	h.ringSet = NewStreamSet(d)
	for i := 0; i < 4; i++ {
		out := &bytes.Buffer{}
		h.ringOuts = append(h.ringOuts, out)
		if _, err := h.ringSet.Register(MustCompile(rc.Query, rc.DTD, Options{}), out); err != nil {
			t.Fatal(err)
		}
	}

	h.body = MustCompile(rc.Query, rc.DTD, Options{})
	h.bodyDoc = h.ringDoc
	h.bodyRef = h.ringRef
	return h
}

// run executes the workload covering the site once, returning the pass
// error.
func (h *matrixHarness) run(t *testing.T, site string) error {
	t.Helper()
	switch site {
	case faultinj.SiteSpillWrite, faultinj.SiteSpillRead:
		_, err := h.spill.Execute(bytes.NewReader(h.spillDoc), io.Discard)
		return err
	case faultinj.SiteRingToken, faultinj.SiteRingEvent:
		for _, b := range h.ringOuts {
			b.Reset()
		}
		return h.ringSet.Run(bytes.NewReader(h.ringDoc))
	case faultinj.SiteBodyRead:
		_, err := h.body.Execute(
			&faultinj.Reader{Site: faultinj.SiteBodyRead, R: bytes.NewReader(h.bodyDoc)},
			io.Discard)
		return err
	}
	t.Fatalf("no workload for site %q", site)
	return nil
}

// verifyClean runs the site's workload with all faults disarmed and
// checks byte-identical output against the pre-fault reference.
func (h *matrixHarness) verifyClean(t *testing.T, site string) {
	t.Helper()
	switch site {
	case faultinj.SiteSpillWrite, faultinj.SiteSpillRead:
		var out bytes.Buffer
		if _, err := h.spill.Execute(bytes.NewReader(h.spillDoc), &out); err != nil {
			t.Fatalf("clean rerun failed: %v", err)
		}
		if out.String() != h.spillRef {
			t.Error("clean rerun output differs from reference")
		}
	case faultinj.SiteRingToken, faultinj.SiteRingEvent:
		for _, b := range h.ringOuts {
			b.Reset()
		}
		if err := h.ringSet.Run(bytes.NewReader(h.ringDoc)); err != nil {
			t.Fatalf("clean rerun failed: %v", err)
		}
		for i, b := range h.ringOuts {
			if b.String() != h.ringRef {
				t.Errorf("clean rerun query %d differs from reference", i)
			}
		}
	case faultinj.SiteBodyRead:
		var out bytes.Buffer
		if _, err := h.body.Execute(bytes.NewReader(h.bodyDoc), &out); err != nil {
			t.Fatalf("clean rerun failed: %v", err)
		}
		if out.String() != h.bodyRef {
			t.Error("clean rerun output differs from reference")
		}
	}
}
