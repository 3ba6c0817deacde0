package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// passID numbers every execution pass in the process, so logs, traces
// and metrics of one pass correlate. It only ever increases.
var passID atomic.Uint64

// NextPassID returns a fresh process-unique pass id.
func NextPassID() uint64 { return passID.Add(1) }

// Span is one node of a pass trace: a named stage with an accumulated
// duration, stall attribution and data-flow counters. Spans are written
// by the goroutine driving the stage they describe; cross-goroutine
// visibility is established by the pass's own synchronization (ring
// handoffs, feed barriers, the pass join), after which the finished
// tree is safe to read.
//
// Durations accumulate rather than derive from start/end pairs: a stage
// like "scan" runs as many slices interleaved with other stages on one
// goroutine, and the span carries the sum of its slices.
type Span struct {
	// Name identifies the stage ("pass", "scan", "eval:q1", ...).
	Name string `json:"name"`
	// Start is the span's first activity relative to the trace start.
	Start time.Duration `json:"start_ns"`
	// Dur is the accumulated active time of the stage.
	Dur time.Duration `json:"dur_ns"`
	// Stall is the portion of the stage spent blocked (ring full/empty,
	// backpressure gate) — attribution, not additional time.
	Stall time.Duration `json:"stall_ns,omitempty"`
	// BytesIn counts raw input bytes consumed by the stage; EventsOut
	// counts events it delivered downstream.
	BytesIn   int64 `json:"bytes_in,omitempty"`
	EventsOut int64 `json:"events_out,omitempty"`
	// RingPeak is the high-water occupancy of the ring the stage feeds
	// (staged passes only).
	RingPeak int `json:"ring_peak,omitempty"`
	// Children are sub-stages.
	Children []*Span `json:"children,omitempty"`

	t0 time.Time // trace epoch, for started-clock helpers
}

// Trace is one pass's span tree. A nil *Trace is the disabled tracer:
// every method no-ops and returns nil spans, so call sites never branch.
type Trace struct {
	// ID correlates the trace with logs (a request id, or empty).
	ID string `json:"id,omitempty"`
	// PassID is the process-unique pass number.
	PassID uint64 `json:"pass_id"`
	// Root is the whole-pass span; its Dur is the wall time.
	Root *Span `json:"root"`

	start time.Time
}

// NewTrace starts a trace whose root span covers the whole pass.
func NewTrace(id string) *Trace {
	now := time.Now()
	return &Trace{
		ID:     id,
		PassID: NextPassID(),
		Root:   &Span{Name: "pass", t0: now},
		start:  now,
	}
}

// End closes the root span at the current wall clock.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.Root.Dur = time.Since(t.start)
}

// Span returns the root span (nil on a nil trace).
func (t *Trace) Span() *Span {
	if t == nil {
		return nil
	}
	return t.Root
}

// Child adds (or returns the existing) child span with this name. The
// first activity timestamp is stamped on creation.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Span{Name: name, t0: s.t0}
	if !s.t0.IsZero() {
		c.Start = time.Since(s.t0)
	}
	s.Children = append(s.Children, c)
	return c
}

// AddTime accumulates active stage time.
func (s *Span) AddTime(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.Dur += d
}

// AddStall accumulates blocked time attribution.
func (s *Span) AddStall(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.Stall += d
}

// AddBytes accumulates raw input bytes consumed.
func (s *Span) AddBytes(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.BytesIn += n
}

// AddEvents accumulates events delivered downstream.
func (s *Span) AddEvents(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.EventsOut += n
}

// SetRingPeak records the stage's ring high-water mark.
func (s *Span) SetRingPeak(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.RingPeak = n
}

// WriteTree renders the trace as a human-readable span timeline, one
// span per line, indented by depth:
//
//	pass #42 (req 7f3a) 12.4ms
//	  scan          8.1ms  in=1.2MB out=48123ev
//	  dispatch      4.1ms  stall=0.3ms
//	    eval:q1.xq  2.2ms
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil || t.Root == nil {
		return
	}
	head := fmt.Sprintf("pass #%d", t.PassID)
	if t.ID != "" {
		head += fmt.Sprintf(" (req %s)", t.ID)
	}
	fmt.Fprintf(w, "%s %s\n", head, fmtDur(t.Root.Dur))
	for _, c := range t.Root.Children {
		writeSpan(w, c, 1)
	}
}

func writeSpan(w io.Writer, s *Span, depth int) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&b, "%-18s %8s", s.Name, fmtDur(s.Dur))
	if s.Stall > 0 {
		fmt.Fprintf(&b, "  stall=%s", fmtDur(s.Stall))
	}
	if s.BytesIn > 0 {
		fmt.Fprintf(&b, "  in=%s", fmtBytes(s.BytesIn))
	}
	if s.EventsOut > 0 {
		fmt.Fprintf(&b, "  out=%dev", s.EventsOut)
	}
	if s.RingPeak > 0 {
		fmt.Fprintf(&b, "  ring-peak=%d", s.RingPeak)
	}
	b.WriteByte('\n')
	io.WriteString(w, b.String())
	for _, c := range s.Children {
		writeSpan(w, c, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
