package mqe

import (
	"bytes"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"fluxquery/internal/dtd"
	"fluxquery/internal/flightrec"
	"fluxquery/internal/telemetry"
	"fluxquery/internal/xsax"
)

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t testing.TB, n int) {
	t.Helper()
	prev := goruntime.GOMAXPROCS(n)
	t.Cleanup(func() { goruntime.GOMAXPROCS(prev) })
}

// countingConsumer records the process goroutine count at every feed.
type countingConsumer struct{ seen []int }

func (c *countingConsumer) BeginFeed([]xsax.Event) {
	c.seen = append(c.seen, goruntime.NumGoroutine())
}
func (c *countingConsumer) EndFeed() (bool, error) { return false, nil }
func (c *countingConsumer) Close(error)            {}

// TestPassFormFollowsGOMAXPROCS: at GOMAXPROCS=1 a pass starts no
// goroutine at all — neither stages nor feed workers — and reports the
// inline form; at 2 it runs the two stages plus one feed worker per
// consumer and reports the staged form.
func TestPassFormFollowsGOMAXPROCS(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(2000)
	for _, tc := range []struct {
		procs, extra int
		staged       bool
	}{{1, 0, false}, {2, 2 + 2, true}} {
		withProcs(t, tc.procs)
		cs := []*countingConsumer{{}, {}}
		time.Sleep(10 * time.Millisecond) // let earlier goroutines exit
		before := goruntime.NumGoroutine()
		disp := Dispatcher{DTD: d}
		var ps flightrec.Record
		err := disp.runPass(strings.NewReader(doc), []Consumer{cs[0], cs[1]}, &ps)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Staged != tc.staged || ps.Parallel != tc.procs || ps.Batches < 2 {
			t.Errorf("procs=%d: pass stats %+v", tc.procs, ps)
		}
		for _, c := range cs {
			if len(c.seen) == 0 {
				t.Fatalf("procs=%d: consumer never fed", tc.procs)
			}
			// The stages exit once the stream is drained, while the
			// dispatcher still feeds the batches left in the ring, so the
			// count peaks early in the pass.
			peak := 0
			for _, n := range c.seen {
				peak = max(peak, n)
			}
			if tc.extra == 0 && peak != before {
				t.Fatalf("procs=%d: %d goroutines during the pass, %d before", tc.procs, peak, before)
			}
			if tc.extra > 0 && peak < before+tc.extra {
				t.Fatalf("procs=%d: %d goroutines during the pass, want >= %d", tc.procs, peak, before+tc.extra)
			}
		}
	}
}

// slowWriter delays every write, so the evaluator falls behind the scan
// and the staged pass's rings fill.
type slowWriter struct{ bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(5 * time.Millisecond)
	return w.Buffer.Write(p)
}

// TestOnePlanStagedPassKeepsStageStats: a staged pass over a single plan
// runs one feed worker, but it is still staged — the pass record and trace
// carry its stage stalls and ring peaks.
func TestOnePlanStagedPassKeepsStageStats(t *testing.T) {
	withProcs(t, 2)
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	var out slowWriter
	if _, err := s.Register(plan(t, q3, d), &out); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunPass(nil, strings.NewReader(bibDoc(4000)), PassOptions{RequestID: "one", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Record
	if !ps.Staged || ps.Parallel != 1 || ps.Batches == 0 {
		t.Fatalf("pass stats %+v, want a staged pass with one worker", ps)
	}
	// Validated batches alias their token batches, so a slow consumer
	// dries up the token free ring first: the pressure shows as the
	// tokenizer's stall.
	if ps.EventRingPeak == 0 || ps.TokenizeStall+ps.ValidateStall == 0 {
		t.Errorf("a slow plan left no ring pressure: %+v", ps)
	}
	tr := ps.Trace
	var scan *telemetry.Span
	for _, ch := range tr.Root.Children {
		if ch.Name == "scan" {
			scan = ch
		}
	}
	if scan == nil {
		t.Fatalf("trace lacks a scan span: %+v", tr.Root.Children)
	}
	stages := map[string]*telemetry.Span{}
	for _, ch := range scan.Children {
		stages[ch.Name] = ch
	}
	tok, val := stages["tokenize"], stages["validate"]
	if tok == nil || val == nil {
		t.Fatalf("scan span lacks tokenize/validate stages: %+v", scan.Children)
	}
	if val.RingPeak != ps.EventRingPeak || val.Stall != ps.ValidateStall ||
		tok.RingPeak != ps.TokenRingPeak || tok.Stall != ps.TokenizeStall {
		t.Errorf("stage spans disagree with the pass record: tokenize %+v validate %+v pass %+v", tok, val, ps)
	}
}

// TestInlinePoolPanicIsolation: the one-worker pool runs on the
// dispatching goroutine. A panic in one consumer's feed fails that
// consumer (and at most the ones this batch had already begun), and the
// consumers after it are still fed the batch.
func TestInlinePoolPanicIsolation(t *testing.T) {
	pool := newEvalPool(1)
	defer pool.close()
	evs := make([]xsax.Event, 1)
	first, bad, after1, after2 := &fakeConsumer{}, &fakeConsumer{panicOn: 1}, &fakeConsumer{}, &fakeConsumer{}
	tasks := []Consumer{first, bad, after1, after2}
	pool.feed(tasks, evs)
	if r := pool.res[1]; !r.done || r.err == nil || !strings.Contains(r.err.Error(), "panic") {
		t.Fatalf("panicking task result = %+v, want done with panic error", r)
	}
	if r := pool.res[0]; r.done && (r.err == nil || !strings.Contains(r.err.Error(), "panic")) {
		t.Errorf("collateral task failed without the panic error: %+v", r)
	}
	for i, c := range []*fakeConsumer{after1, after2} {
		if c.feeds != 1 || pool.res[i+2].done {
			t.Errorf("consumer after the panic: feeds=%d result=%+v", c.feeds, pool.res[i+2])
		}
	}
	pool.feed([]Consumer{after1, after2}, evs)
	if after1.feeds != 2 || after2.feeds != 2 || pool.res[0].done || pool.res[1].done {
		t.Errorf("follow-up batch: feeds %d/%d results %+v", after1.feeds, after2.feeds, pool.res[:2])
	}
}
