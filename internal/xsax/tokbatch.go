package xsax

import (
	"sync"

	"fluxquery/internal/xmltok"
)

// This file defines the raw token batch that the staged pass hands
// between its tokenizer and validator goroutines. A TokBatch is the
// pre-validation analogue of Batch: it owns copies of every scanner view
// so the scanner can keep running ahead, and it carries the projection
// verdicts the tokenizer stage already decided (shells, dropped text,
// validate-only interiors) so the validator replays exactly the
// sequential reader's delivery decisions without re-running the skip
// automaton.

// Flags on a TokEvent, set by the tokenizer stage.
const (
	// tokShellStart marks the start tag of a pruned subtree: the
	// validator validates it (including attributes) and delivers it bare.
	tokShellStart uint8 = 1 << iota
	// tokShellEndFast is the synthesized end tag of a bulk-skipped
	// subtree: the interior was never validated, so the frame is popped
	// without the content-model accepting check (fast mode only).
	tokShellEndFast
	// tokShellEnd is the real end tag of a pruned subtree in validate
	// mode: fully validated, delivered.
	tokShellEnd
	// tokTextDrop marks text the projection automaton rejects: validated
	// (the character-data rule still applies), counted skipped, not
	// delivered.
	tokTextDrop
	// tokInterior marks an event inside a pruned subtree in validate
	// mode: fully validated, counted skipped, not delivered.
	tokInterior
)

// TokEvent is one raw tokenizer event staged ahead of validation.
// Element and ProcInst names travel as symbols only — the validator
// resolves them through the scanner's symbol table, which is safe to
// read concurrently with interning (see SymTab).
type TokEvent struct {
	Kind  xmltok.Kind
	Flags uint8
	Sym   xmltok.Sym
	// Line is the scanner line at which the event was produced, carried
	// so validation errors downstream report the same position the
	// sequential reader would.
	Line int32
	// Data holds text/comment/directive content (owned by the batch).
	Data []byte
	// Attrs holds a StartElement's attributes (owned by the batch).
	Attrs []xmltok.AttrBytes
}

// TokBatch is an owned, reusable sequence of raw tokenizer events. The
// per-event byte views are valid until the next Reset; the validated
// Batch built from a TokBatch aliases this arena, so the pipeline
// recycles the pair together.
type TokBatch struct {
	Events []TokEvent
	arena  []byte
	attrs  []xmltok.AttrBytes
}

// Reset empties the batch, retaining its storage.
func (b *TokBatch) Reset() {
	b.Events = b.Events[:0]
	b.arena = b.arena[:0]
	b.attrs = b.attrs[:0]
}

// Len returns the number of buffered events.
func (b *TokBatch) Len() int { return len(b.Events) }

// ArenaBytes returns the payload bytes the batch owns; drivers use it to
// bound batch size.
func (b *TokBatch) ArenaBytes() int { return len(b.arena) }

// Append copies ev into the batch with the given flags and line.
func (b *TokBatch) Append(ev *xmltok.Event, flags uint8, line int) {
	e := TokEvent{Kind: ev.Kind, Flags: flags, Sym: ev.Sym(), Line: int32(line)}
	if d := ev.DataBytes(); len(d) > 0 {
		e.Data = b.copyBytes(d)
	}
	if attrs := ev.Attrs(); len(attrs) > 0 {
		start := len(b.attrs)
		for _, a := range attrs {
			b.attrs = append(b.attrs, xmltok.AttrBytes{
				Name:  b.copyBytes(a.Name),
				Value: b.copyBytes(a.Value),
				Sym:   a.Sym,
			})
		}
		// Full slice expression: a later growth must not let one event's
		// append bleed into another event's view.
		e.Attrs = b.attrs[start:len(b.attrs):len(b.attrs)]
	}
	b.Events = append(b.Events, e)
}

// AppendSynth appends a synthesized event (no scanner views), used for
// the end tag of a bulk-skipped subtree.
func (b *TokBatch) AppendSynth(kind xmltok.Kind, sym xmltok.Sym, flags uint8, line int) {
	b.Events = append(b.Events, TokEvent{Kind: kind, Flags: flags, Sym: sym, Line: int32(line)})
}

func (b *TokBatch) copyBytes(p []byte) []byte {
	off := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[off:len(b.arena):len(b.arena)]
}

var tokBatchPool sync.Pool

func getTokBatch() *TokBatch {
	if v := tokBatchPool.Get(); v != nil {
		b := v.(*TokBatch)
		b.Reset()
		return b
	}
	return &TokBatch{}
}

func putTokBatch(b *TokBatch) { tokBatchPool.Put(b) }
