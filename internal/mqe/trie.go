package mqe

import (
	"io"
	"time"

	"fluxquery/internal/flightrec"
	"fluxquery/internal/shared"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xsax"
)

// This file implements trie-routed dispatch: instead of fanning every
// batch to every riding plan, the dispatcher walks the shared dispatch
// trie (package shared) one node per element and appends each event only
// to the pending batches of the delivery *classes* whose fan-out list
// names them. A class groups every subscription with the same projection
// automaton and shell requirement — their event streams are provably
// identical — so the per-event cost is the trie step plus one arena copy
// per receiving class: proportional to the distinct path families the
// registrations touch, not to the registration count. A class's pending
// batch flushes to every member evaluator when it fills (or at end of
// stream); rendezvous cost amortizes the same way — a plan is woken once
// per batch of its own events, so a plan whose paths see little of the
// stream is woken rarely.
//
// Ownership: pending batches are dispatcher-owned xsax.Batches. Append
// deep-copies event payloads out of the source batch immediately, so the
// source memory can recycle without waiting for evaluator
// acknowledgements; symbol-table
// references stay valid for the whole stream (the table is append-only
// between streams, see xmltok.SymTab). A flush is the standard
// BeginFeed/EndFeed rendezvous, after which the pending batch resets and
// its arena reuses.

// DispatchMode selects how a Set fans the shared stream out to its
// plans.
type DispatchMode uint8

const (
	// DispatchFanout delivers every batch to every riding plan (the
	// original shared pass).
	DispatchFanout DispatchMode = iota
	// DispatchTrie routes events through the shared dispatch trie:
	// per-plan delivery, shell elision for plans that allow it, per-plan
	// batch flushing.
	DispatchTrie
)

// String returns the mode's flag spelling ("fanout", "trie").
func (m DispatchMode) String() string {
	if m == DispatchTrie {
		return "trie"
	}
	return "fanout"
}

// ParseDispatchMode converts a flag value ("fanout", "trie").
func ParseDispatchMode(s string) (DispatchMode, bool) {
	switch s {
	case "fanout":
		return DispatchFanout, true
	case "trie":
		return DispatchTrie, true
	}
	return DispatchFanout, false
}

// DispatchStats receives one Dispatcher pass's trie-routing totals
// (see Dispatcher.Disp). A Set records the same totals, with the trie
// snapshot's shape, in the pass's flight record.
type DispatchStats struct {
	// Events counts events routed through the trie; Deliveries counts
	// per-plan event deliveries (the sum of fan-out sizes — the work a
	// plain fanout pass would have multiplied by the plan count).
	Events, Deliveries int64
	// Flushes counts per-plan batch rendezvous.
	Flushes int64
}

// runTrie is the trie-routed shared pass. It draws batches from the
// same source as the fanout pass (see openPass) and routes their events
// into per-class pending batches, bounded like the source's batches.
func (d *Dispatcher) runTrie(r io.Reader, consumers []Consumer, rec *flightrec.Record) error {
	maxEvents := d.BatchEvents
	if maxEvents <= 0 {
		maxEvents = xsax.DefaultBatchEvents
	}
	s := newTrieSink(d.Trie, d.Members, consumers, maxEvents, xsax.DefaultBatchBytes)
	// The feed workers shard the trie's flush sets: per source batch,
	// only the plans whose pending batches filled are woken, and the
	// pool's cost-ordered claim/steal discipline balances them.
	pl, pool := d.openPass(r, len(s.cons))

	obs := d.Obs
	var scanTime, dispTime time.Duration
	var cause error
	var batches int64
	for cause == nil {
		if err := d.ctxErr(); err != nil {
			cause = err
			break
		}
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		// Appending into pending batches is counted as scan work; the
		// flush rendezvous below is the dispatch side.
		vb, err := pl.Next()
		if err != nil {
			cause = err
			break
		}
		for i := range vb.Events {
			s.route(&vb.Events[i])
		}
		var t1 time.Time
		if obs != nil {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		batches++
		s.flushDue(pool)
		if obs != nil {
			dispTime += time.Since(t1)
		}
		pl.Recycle(vb)
	}
	s.finish(cause, pool)
	closePass(pl, pool, rec)
	rec.Batches, rec.Events = batches, s.events
	rec.TrieEvents, rec.TrieDeliveries, rec.TrieFlushes = s.events, s.deliveries, s.flushes
	if obs != nil {
		obs.Scan.AddTime(scanTime)
		obs.Scan.AddStall(rec.DispatchStall)
		obs.Dispatch.AddTime(dispTime)
	}
	if ds := d.Disp; ds != nil {
		ds.Events, ds.Deliveries, ds.Flushes = s.events, s.deliveries, s.flushes
	}
	if cause == io.EOF {
		return nil
	}
	return cause
}

// tframe is one open element on the trie walk: the interior node
// governing its children and the fan-out list its end event owes.
type tframe struct {
	node int32
	fan  int32
}

// trieSink routes events to per-class pending batches and flushes each
// to the class's member consumers.
type trieSink struct {
	t    *shared.Trie
	cons []Consumer
	// members maps each trie plan index (delivery class) to the consumer
	// indices riding it; clsLive counts a class's not-yet-closed members
	// so fully dead classes stop buffering. pend and dueMark are indexed
	// by class, dead by consumer.
	members [][]int32
	clsLive []int32
	pend    []*xsax.Batch
	dead    []bool

	stack   []tframe
	due     []int32
	dueMark []bool

	// flush scratch: one task per live member of each due class, all
	// members of a class sharing its event slice.
	parTasks []Consumer
	parEvs   [][]xsax.Event
	parIdx   []int32
	parCls   []int32

	maxEvents, maxBytes int
	live                int
	events, deliveries  int64
	flushes             int64
}

func newTrieSink(t *shared.Trie, members [][]int32, consumers []Consumer, maxEvents, maxBytes int) *trieSink {
	if members == nil {
		// Trie built directly over the consumers: one class each.
		members = make([][]int32, len(consumers))
		for i := range members {
			members[i] = []int32{int32(i)}
		}
	}
	s := &trieSink{
		t:         t,
		cons:      consumers,
		members:   members,
		clsLive:   make([]int32, len(members)),
		pend:      make([]*xsax.Batch, len(members)),
		dead:      make([]bool, len(consumers)),
		dueMark:   make([]bool, len(members)),
		maxEvents: maxEvents,
		maxBytes:  maxBytes,
		live:      len(consumers),
	}
	for c := range s.pend {
		s.pend[c] = xsax.GetBatch()
		s.clsLive[c] = int32(len(members[c]))
	}
	s.stack = append(s.stack, tframe{node: t.Root(), fan: -1})
	return s
}

// route walks one event through the trie and appends it to every
// receiving plan's pending batch.
func (s *trieSink) route(ev *xsax.Event) {
	s.events++
	switch ev.Kind {
	case xmltok.StartElement:
		top := s.stack[len(s.stack)-1]
		if top.node == shared.Drop {
			s.stack = append(s.stack, tframe{node: shared.Drop, fan: -1})
			return
		}
		fan, next := s.t.StartChild(top.node, ev.Elem.ID())
		s.stack = append(s.stack, tframe{node: next, fan: fan})
		s.deliver(s.t.List(fan), ev)
	case xmltok.EndElement:
		n := len(s.stack) - 1
		if n < 1 {
			return
		}
		fr := s.stack[n]
		s.stack = s.stack[:n]
		if fr.fan >= 0 {
			s.deliver(s.t.List(fr.fan), ev)
		}
	case xmltok.Text:
		if top := s.stack[len(s.stack)-1]; top.node != shared.Drop {
			s.deliver(s.t.TextList(top.node), ev)
		}
	default:
		// Comments, processing instructions and directives: no evaluator
		// output depends on them (copy regions reproduce elements and
		// text only), so they are not routed.
	}
}

func (s *trieSink) deliver(classes []int32, ev *xsax.Event) {
	for _, c := range classes {
		n := s.clsLive[c]
		if n == 0 {
			continue
		}
		b := s.pend[c]
		b.Append(ev)
		s.deliveries += int64(n)
		if !s.dueMark[c] && (b.Len() >= s.maxEvents || b.ArenaBytes() >= s.maxBytes) {
			s.dueMark[c] = true
			s.due = append(s.due, c)
		}
	}
}

// flushDue feeds every due class's pending batch to its live members
// through the worker pool.
func (s *trieSink) flushDue(pool *evalPool) {
	if len(s.due) == 0 {
		return
	}
	s.flush(pool)
	for _, c := range s.due {
		s.dueMark[c] = false
	}
	s.due = s.due[:0]
}

// closeMember retires one consumer of class c.
func (s *trieSink) closeMember(p, c int32, cause error) {
	s.cons[p].Close(cause)
	s.dead[p] = true
	s.live--
	s.clsLive[c]--
}

func (s *trieSink) flush(pool *evalPool) {
	s.parTasks, s.parEvs = s.parTasks[:0], s.parEvs[:0]
	s.parIdx, s.parCls = s.parIdx[:0], s.parCls[:0]
	for _, c := range s.due {
		evs := s.pend[c].Events
		for _, p := range s.members[c] {
			if s.dead[p] {
				continue
			}
			s.parTasks = append(s.parTasks, s.cons[p])
			s.parEvs = append(s.parEvs, evs)
			s.parIdx = append(s.parIdx, p)
			s.parCls = append(s.parCls, c)
		}
	}
	if len(s.parTasks) > 0 {
		pool.feedEach(s.parTasks, s.parEvs)
		for k := range s.parTasks {
			s.flushes++
			if pool.res[k].done {
				// A worker-side failure (panic isolation) reaches the
				// consumer as its cause; evaluator-side terminations
				// recorded their own error and ignore it.
				s.closeMember(s.parIdx[k], s.parCls[k], pool.res[k].err)
			}
		}
	}
	for _, c := range s.due {
		s.pend[c].Reset()
	}
}

// finish flushes every remaining pending batch, closes the consumers
// with the stream's terminal status and returns the pending batches to
// the pool.
func (s *trieSink) finish(cause error, pool *evalPool) {
	s.due = s.due[:0]
	for c := range s.pend {
		if s.clsLive[c] > 0 && s.pend[c].Len() > 0 {
			s.dueMark[c] = true
			s.due = append(s.due, int32(c))
		}
	}
	s.flushDue(pool)
	for p, cons := range s.cons {
		if !s.dead[p] {
			cons.Close(cause)
		}
	}
	for c := range s.pend {
		xsax.PutBatch(s.pend[c])
		s.pend[c] = nil
	}
}
