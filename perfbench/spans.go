package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start,
// end, the span that caused it and the op it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, at the
// end of the run. A nil recorder records nothing but still times. It is
// used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. Ids start at 1,
// so parent 0 means a root span.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// add records a span whose bounds were measured elsewhere, such as the
// pass time a server reports inside a request.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans)
}

// time runs f inside a span.
func (r *recorder) time(name string, parent, op int, f func() error) (time.Duration, error) {
	if r == nil {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
	id := r.begin(name, parent, op)
	err := f()
	return r.end(id), err
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (concurrent
// calls) and may stick out of the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{r.epoch, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
