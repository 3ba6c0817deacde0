package mqe

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"fluxquery/internal/dtd"
	"fluxquery/internal/flightrec"
)

// TestLedgerAttributesAcrossPasses: the ledger accrues per-name cost
// over multiple passes and over multiple Sets sharing the ledger (the
// server shape: one process ledger, fresh Set per request).
func TestLedgerAttributesAcrossPasses(t *testing.T) {
	d := dtd.MustParse(weakBib)
	led := NewLedger()
	doc := bibDoc(50)

	for pass := 0; pass < 3; pass++ {
		s := NewSet(d)
		s.SetLedger(led)
		if s.Ledger() != led {
			t.Fatal("Ledger getter did not return the installed ledger")
		}
		if _, err := s.RegisterNamed(plan(t, q3, d), io.Discard, "books"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterNamed(plan(t, qTitles, d), io.Discard, "titles"); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}

	if led.Len() != 2 {
		t.Fatalf("ledger holds %d entries, want 2", led.Len())
	}
	e, ok := led.Get("books")
	if !ok {
		t.Fatal("no entry for books")
	}
	if e.Passes != 3 || e.Errors != 0 || e.LastError != "" {
		t.Fatalf("books entry = %+v, want 3 clean passes", e)
	}
	if e.EvalCPU <= 0 {
		t.Errorf("EvalCPU = %v, want > 0", e.EvalCPU)
	}
	if e.Events <= 0 || e.OutputBytes <= 0 {
		t.Errorf("Events = %d OutputBytes = %d, want > 0", e.Events, e.OutputBytes)
	}
	if e.LastPassID == 0 {
		t.Error("LastPassID not stamped")
	}

	// Stats is sorted by name; per-entry sums are disjoint per name.
	all := led.Stats()
	if len(all) != 2 || all[0].Name != "books" || all[1].Name != "titles" {
		t.Fatalf("Stats() = %+v", all)
	}
}

// TestLedgerRecordsErrors: a failing subscription accrues an error and
// retains its message; the healthy neighbour stays clean.
func TestLedgerRecordsErrors(t *testing.T) {
	d := dtd.MustParse(weakBib)
	led := NewLedger()
	s := NewSet(d)
	s.SetLedger(led)
	if _, err := s.RegisterNamed(plan(t, q3, d), &failAfter{n: 64}, "bad"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterNamed(plan(t, q3, d), io.Discard, "good"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(strings.NewReader(bibDoc(2000))); err != nil {
		t.Fatal(err)
	}
	bad, _ := led.Get("bad")
	if bad.Errors != 1 || bad.LastError == "" {
		t.Fatalf("bad entry = %+v, want 1 error with message", bad)
	}
	good, _ := led.Get("good")
	if good.Errors != 0 || good.LastError != "" {
		t.Fatalf("good entry = %+v, want clean", good)
	}
}

func TestLedgerTopK(t *testing.T) {
	led := NewLedger()
	led.record("a", nil, 30*time.Millisecond, nil)
	led.record("b", nil, 10*time.Millisecond, errors.New("boom"))
	led.record("c", nil, 20*time.Millisecond, nil)
	led.record("c", nil, 20*time.Millisecond, nil)

	top, err := led.TopK("cpu", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Name != "c" || top[1].Name != "a" {
		t.Fatalf("TopK(cpu, 2) = %+v", top)
	}
	top, err = led.TopK("errors", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Name != "b" {
		t.Fatalf("TopK(errors, 1) = %+v", top)
	}
	top, err = led.TopK("passes", 0)
	if err != nil || len(top) != 3 || top[0].Name != "c" {
		t.Fatalf("TopK(passes, 0) = %+v, %v", top, err)
	}
	if _, err := led.TopK("bogus", 3); err == nil {
		t.Fatal("unknown axis accepted")
	}
	// Ties break by name for determinism.
	led2 := NewLedger()
	led2.record("z", nil, time.Millisecond, nil)
	led2.record("a", nil, time.Millisecond, nil)
	top, _ = led2.TopK("cpu", 0)
	if top[0].Name != "a" || top[1].Name != "z" {
		t.Fatalf("tie order = %+v", top)
	}

	led.Reset()
	if led.Len() != 0 {
		t.Fatal("Reset left entries")
	}
}

func TestNilLedgerIsNoop(t *testing.T) {
	var led *Ledger
	led.record("x", nil, time.Second, errors.New("boom"))
	if led.Len() != 0 {
		t.Fatal("nil ledger has entries")
	}
	if _, ok := led.Get("x"); ok {
		t.Fatal("nil ledger resolved an entry")
	}
	if led.Stats() != nil {
		t.Fatal("nil ledger returned stats")
	}
	if top, err := led.TopK("cpu", 3); err != nil || top != nil {
		t.Fatalf("nil TopK = %v, %v", top, err)
	}
	led.Reset()
}

// TestSetFlightRecorder: every completed pass — success and failure —
// deposits one record carrying configuration, data flow and the request
// id; the pass id matches the subscriptions' stamped PassID.
func TestSetFlightRecorder(t *testing.T) {
	d := dtd.MustParse(weakBib)
	rec := flightrec.New(flightrec.Config{Size: 8})
	s := NewSet(d)
	s.SetRecorder(rec)
	if s.Recorder() != rec {
		t.Fatal("Recorder getter did not return the installed recorder")
	}
	sub, err := s.RegisterNamed(plan(t, q3, d), io.Discard, "books")
	if err != nil {
		t.Fatal(err)
	}
	doc := bibDoc(50)
	res, err := s.RunPass(nil, strings.NewReader(doc), PassOptions{RequestID: "req-42"})
	if err != nil {
		t.Fatal(err)
	}

	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d records, want 1", rec.Len())
	}
	r := rec.Snapshot(1)[0]
	st, _ := sub.Result()
	if r.PassID != st.PassID {
		t.Errorf("record pass id %d != sub pass id %d", r.PassID, st.PassID)
	}
	if r.RequestID != "req-42" {
		t.Errorf("RequestID = %q", r.RequestID)
	}
	if r.Plans != 1 || r.Projection == "" || r.Dispatch == "" {
		t.Errorf("configuration fields = %+v", r)
	}
	if r.InputBytes != int64(len(doc)) {
		t.Errorf("InputBytes = %d, want %d", r.InputBytes, len(doc))
	}
	if r.Events <= 0 || r.Duration <= 0 || r.MBps <= 0 {
		t.Errorf("data flow = events=%d dur=%v mbps=%f", r.Events, r.Duration, r.MBps)
	}
	if r.Err != "" || r.CancelReason != "" || r.PlanErrors != 0 {
		t.Errorf("clean pass carries error fields: %+v", r)
	}
	// No tracing, no slow thresholds: the trace must not be retained.
	if r.Trace != nil {
		t.Error("fast pass retained a trace")
	}
	if res.Record.Trace != nil {
		t.Error("recorder-only pass leaked into the pass result's trace")
	}

	// A failed pass still deposits a record with its terminal error.
	if _, err := s.RunPass(nil, strings.NewReader(`<bib><book><title>T</title><broken`), PassOptions{RequestID: "req-42"}); err == nil {
		t.Fatal("malformed stream accepted")
	}
	if rec.Total() != 2 {
		t.Fatalf("recorder total = %d after failed pass, want 2", rec.Total())
	}
	r = rec.Snapshot(1)[0]
	if r.Err == "" {
		t.Error("failed pass recorded without error")
	}
	if r.PlanErrors != 1 {
		t.Errorf("PlanErrors = %d, want 1", r.PlanErrors)
	}
}

// TestSetSlowPassCaptureWithoutTracing: with tracing off but a slow
// threshold armed, a slow pass's record retains a span tree and dumps
// through the logger — and the pass result's trace stays nil (tracing is a separate,
// user-facing switch).
func TestSetSlowPassCaptureWithoutTracing(t *testing.T) {
	d := dtd.MustParse(weakBib)
	var buf bytes.Buffer
	rec := flightrec.New(flightrec.Config{
		Size:        8,
		SlowLatency: time.Nanosecond, // everything is slow
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
	})
	s := NewSet(d)
	s.SetRecorder(rec)
	if _, err := s.RegisterNamed(plan(t, q3, d), io.Discard, "books"); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunPass(nil, strings.NewReader(bibDoc(20)), PassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Snapshot(1)[0]
	if !r.Slow {
		t.Fatal("pass over threshold not marked slow")
	}
	if r.Trace == nil {
		t.Fatal("slow pass has no span tree despite CapturesSlow")
	}
	if !strings.Contains(buf.String(), "slow pass") {
		t.Errorf("no slow-pass dump: %s", buf.String())
	}
	if res.Record.Trace != nil {
		t.Error("slow-capture trace leaked into the pass result's trace")
	}
}
