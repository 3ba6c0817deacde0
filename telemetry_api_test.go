package fluxquery

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

func telemetryDoc(books int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, "<book year=\"2004\"><title>T%d</title><author>A%d</author><author>B%d</author></book>", i, i, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

// TestPlanTelemetryCounters: a plan compiled with Options.Telemetry
// publishes pass/byte/event series, and each execution carries a
// distinct pass id and the input size in its Stats.
func TestPlanTelemetryCounters(t *testing.T) {
	tel := NewTelemetry()
	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{Telemetry: tel})
	doc := telemetryDoc(50)

	st1, err := p.Execute(strings.NewReader(doc), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := p.Execute(strings.NewReader(doc), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if st1.PassID == 0 || st2.PassID == 0 || st1.PassID == st2.PassID {
		t.Errorf("pass ids must be distinct and nonzero: %d, %d", st1.PassID, st2.PassID)
	}
	if st1.InputBytes != int64(len(doc)) {
		t.Errorf("InputBytes = %d, want %d", st1.InputBytes, len(doc))
	}

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"flux_scan_passes_total 2",
		"flux_scan_bytes_total",
		"flux_scan_events_total",
		"flux_pass_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestStreamSetTelemetryAndTrace: a traced shared pass yields per-plan
// eval series labeled by registration name and a span tree whose scan
// and dispatch phases sum to (nearly) the pass wall time.
func TestStreamSetTelemetryAndTrace(t *testing.T) {
	tel := NewTelemetry()
	d, err := ParseDTD(xmlgen.WeakBibDTD)
	if err != nil {
		t.Fatal(err)
	}
	set := NewStreamSet(d)
	set.SetTelemetry(tel)
	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{})
	if _, err := set.RegisterNamed(p, io.Discard, "books"); err != nil {
		t.Fatal(err)
	}
	res, err := set.RunPass(nil, strings.NewReader(telemetryDoc(200)), PassOptions{RequestID: "req-42", Trace: true})
	if err != nil {
		t.Fatal(err)
	}

	tr := res.Record.Trace
	if tr == nil || tr.ID != "req-42" || tr.PassID == 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Root == nil || tr.Root.Dur <= 0 {
		t.Fatalf("root span missing or unstamped: %+v", tr.Root)
	}
	var scan, dispatch *TraceSpan
	for _, ch := range tr.Root.Children {
		switch ch.Name {
		case "scan":
			scan = ch
		case "dispatch":
			dispatch = ch
		}
	}
	if scan == nil || dispatch == nil {
		t.Fatalf("trace lacks scan/dispatch spans: %+v", tr.Root.Children)
	}
	if scan.BytesIn == 0 || scan.EventsOut == 0 {
		t.Errorf("scan span totals not stamped: %+v", scan)
	}
	found := false
	for _, ch := range dispatch.Children {
		if ch.Name == "eval:books" && ch.Dur > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("dispatch lacks a stamped eval:books span: %+v", dispatch.Children)
	}

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"flux_scan_passes_total 1",
		`flux_eval_batch_seconds_count{plan="books"}`,
		"flux_dispatch_batches_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTraceSpansSumToWall: in either pass form the scan (filling or
// waiting for the next batch) and dispatch spans partition the pass
// loop, so their durations must sum to within 10% of the root span's
// wall time. A few attempts damp scheduler noise; one conforming pass
// per form proves the accounting.
func TestTraceSpansSumToWall(t *testing.T) {
	d, err := ParseDTD(xmlgen.WeakBibDTD)
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{})
	doc := telemetryDoc(5000)

	for _, procs := range []int{1, 2} {
		withProcs(t, procs)
		var lastRatio float64
		for attempt := 0; attempt < 5; attempt++ {
			set := NewStreamSet(d)
			if _, err := set.Register(p, io.Discard); err != nil {
				t.Fatal(err)
			}
			res, err := set.RunPass(nil, strings.NewReader(doc), PassOptions{RequestID: "sum", Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Record.Trace
			var sum time.Duration
			for _, ch := range tr.Root.Children {
				sum += ch.Dur
			}
			lastRatio = float64(sum) / float64(tr.Root.Dur)
			if lastRatio >= 0.9 && lastRatio <= 1.05 {
				break
			}
		}
		if lastRatio < 0.9 || lastRatio > 1.05 {
			t.Errorf("procs=%d: span sum / wall = %.3f after retries, want within [0.9, 1.05]", procs, lastRatio)
		}
	}
}

// TestTelemetryZeroPerEventAllocs: enabling telemetry must add only a
// per-pass constant to the pass's allocation count, never a per-event
// term — instruments are resolved once per pass and observed per
// batch, and recording into them is allocation-free.
func TestTelemetryZeroPerEventAllocs(t *testing.T) {
	d, err := ParseDTD(xmlgen.WeakBibDTD)
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{})
	doc := []byte(telemetryDoc(2500))
	events := int64(0)

	measure := func(configure func(*StreamSet)) float64 {
		set := NewStreamSet(d)
		if configure != nil {
			configure(set)
		}
		reg, err := set.Register(p, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := set.Run(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm pools, interning and output buffers
		run()
		allocs := testing.AllocsPerRun(5, run)
		if st, err := reg.Stats(); err == nil {
			events = st.Events
		}
		return allocs
	}
	off := measure(nil)
	on := measure(func(s *StreamSet) { s.SetTelemetry(NewTelemetry()) })
	rec := measure(func(s *StreamSet) {
		s.SetRecorder(NewFlightRecorder(FlightRecorderConfig{}))
		s.SetLedger(NewQueryLedger())
	})
	if events < 10_000 {
		t.Fatalf("workload too small to resolve per-event costs: %d events", events)
	}
	// The query itself buffers per book, so absolute counts scale with
	// the input on both sides; the instrumentation DELTA is what must
	// not. The same bound holds for the flight recorder and cost
	// ledger: one record deposit and one ledger update per pass, zero
	// per-event terms.
	for _, tc := range []struct {
		name string
		on   float64
	}{{"telemetry", on}, {"recorder+ledger", rec}} {
		if perEvent := (tc.on - off) / float64(events); perEvent > 0.01 {
			t.Errorf("%s adds %.4f allocations per event (off %.1f, on %.1f, %d events), want ~0",
				tc.name, perEvent, off, tc.on, events)
		}
	}
}

// TestTelemetryOverhead compares the 8-query XMark shared pass with
// telemetry enabled against disabled and bounds the slowdown. Timing
// ratios are machine-load sensitive, so the check only runs when
// FLUX_TELEMETRY_OVERHEAD=1 (the CI bench-smoke job sets it).
func TestTelemetryOverhead(t *testing.T) {
	if os.Getenv("FLUX_TELEMETRY_OVERHEAD") == "" {
		t.Skip("set FLUX_TELEMETRY_OVERHEAD=1 to run the overhead check")
	}
	names := []string{
		"xmark-q1", "xmark-q8-join", "xmark-q13", "xmark-q2-bidders",
		"xmark-q17-nophone", "xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
	}
	base := workload.ByName(names[0])
	var buf bytes.Buffer
	if err := base.Gen(&buf, 512<<10, 42); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	d, err := ParseDTD(base.DTD)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, len(names))
	for i, name := range names {
		c := workload.ByName(name)
		plans[i] = MustCompile(c.Query, c.DTD, Options{})
	}
	measure := func(configure func(*StreamSet)) time.Duration {
		set := NewStreamSet(d)
		if configure != nil {
			configure(set)
		}
		for _, p := range plans {
			if _, err := set.Register(p, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 7; i++ {
			start := time.Now()
			if err := set.Run(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	measure(nil) // warm pools and interning before any measurement
	off := measure(nil)
	for _, tc := range []struct {
		name      string
		configure func(*StreamSet)
	}{
		{"telemetry", func(s *StreamSet) { s.SetTelemetry(NewTelemetry()) }},
		{"recorder+ledger", func(s *StreamSet) {
			s.SetRecorder(NewFlightRecorder(FlightRecorderConfig{}))
			s.SetLedger(NewQueryLedger())
		}},
	} {
		on := measure(tc.configure)
		overhead := float64(on-off) / float64(off) * 100
		t.Logf("%s overhead: off=%v on=%v (%.2f%%)", tc.name, off, on, overhead)
		if overhead > 3.0 {
			t.Errorf("%s overhead %.2f%% exceeds 3%% (off=%v on=%v)", tc.name, overhead, off, on)
		}
	}
}
