package xsax

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"fluxquery/internal/dtd"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/proj"
	"fluxquery/internal/xmltok"
)

// This file implements the pass's batch source, the Pipeline. It has two
// forms, chosen by the pass width (PipelineConfig.Width, derived from
// GOMAXPROCS by default). With width >= 2 tokenization, DTD validation
// and delivery run as three stages on separate goroutines, connected by
// two bounded SPSC rings of owned batches —
//
//	tokenizer ──TokBatch ring──▶ validator ──Batch ring──▶ caller
//
// so the scanner runs ahead of validation, which runs ahead of the
// consumers, instead of the three alternating on one goroutine. The
// tokenizer stage also executes the projection automaton (it owns the
// scanner, and fast-mode pruning is a scanner operation); it records its
// verdicts as per-event flags that the validator replays, so delivery
// and error semantics are exactly those of the sequential Reader — the
// differential tests pin byte-identical output.
//
// With width 1 there is no second core for a stage to run on, and the
// ring hand-offs would only add scheduling to the same serial work. Next
// then fills each batch inline, on the caller's goroutine, from a
// validating Reader (with the projection installed on it), and no stage
// goroutine is started. Both forms deliver the same events in the same
// order with the same terminal error.
//
// Each ring is a pair of channels: full batches flowing downstream and
// empty batches flowing back. The batch population is fixed at ring
// construction, so a stage that outruns its consumer blocks on the full
// ring (backpressure) and a stage that outruns its producer blocks on
// the empty one; both blocked times are accounted as per-stage stalls.

// PipeStats reports a pass's stage metrics (stalls and ring peaks are
// zero for the inline form).
type PipeStats struct {
	// Batches counts validated batches handed to the caller.
	Batches int64
	// TokStall is the time the tokenizer stage spent blocked on its
	// downstream — a full token ring, or no free batch because all of
	// them were downstream (validation was the bottleneck); ValStall the
	// same for the validator on the event ring (consumers were the
	// bottleneck); DispStall the time the caller waited for a validated
	// batch (the scan was the bottleneck).
	TokStall, ValStall, DispStall time.Duration
	// TokRingPeak and ValRingPeak are high-water occupancies of the two
	// rings, observed at send.
	TokRingPeak, ValRingPeak int
}

// PipelineConfig configures a pass's batch source.
type PipelineConfig struct {
	// Width is the pass width: >= 2 runs the tokenize and validate
	// stages on their own goroutines, 1 fills batches inline on the
	// caller's goroutine, 0 derives it (see Width).
	Width int
	// BatchEvents bounds a batch's event count (default
	// DefaultBatchEvents); its payload is bounded by DefaultBatchBytes.
	BatchEvents int
	// Proj and ProjMode install a projection automaton, with the same
	// semantics as Reader.SetProjection.
	Proj     *proj.Automaton
	ProjMode proj.Mode
	// Throttle, when non-nil, is called by the tokenizer stage before
	// each batch: the pass's backpressure point (a bufmgr gate wait). A
	// non-nil return is the pass's terminal error — the tokenizer stops
	// and the error drains downstream like a stream error.
	Throttle func() error
	// Ctx, when non-nil, cancels the pass: Next returns ctx.Err() as
	// soon as the context is done, even while the stages are still
	// filling rings (the caller must still Close the pipeline, which
	// unparks and joins them).
	Ctx context.Context
}

// Default batch bounds, one rule for every pass. Every batch pays a
// rendezvous with each consumer and, in the staged form, two ring
// hand-offs plus a feed-worker barrier, so batches are large enough to
// amortize that coordination. Measured on the xmark-stream benchmark
// (7 plans, 2-vCPU VM): 256 events / 32 KiB reached 0.45-0.50 MB/ref,
// 512 / 64 KiB 0.57-0.58, this size 0.54-0.65, and 2048 / 256 KiB no
// more (0.63-0.66) for 2 MB more peak RSS.
const (
	DefaultBatchEvents = 1024
	DefaultBatchBytes  = 128 << 10
)

// ringDepth bounds each inter-stage ring: a stage may run a few batches
// ahead of a consumer whose per-batch cost varies, without letting the
// rings (and their fixed batch populations of ringDepth+1) grow memory.
const ringDepth = 4

// Width returns the derived pass width: the number of goroutines the Go
// scheduler runs at once (GOMAXPROCS). Passes stage their tokenizer and
// validator when it is at least 2 and shard their consumers over up to
// that many feed workers.
func Width() int { return runtime.GOMAXPROCS(0) }

// Pipeline is one tokenize→validate pass over a stream. The caller
// drains it with Next/Recycle and must Close it exactly once — also on
// early abandonment, which unblocks and joins the stages.
type Pipeline struct {
	// xr owns the scanner and the validation core. The inline form reads
	// events through it; the staged form drives its scanner from the
	// tokenizer stage and its validation core from the validator stage.
	// sc and syms copy xr's scanner and symbol table pointers: the
	// stages read them here, on a line nothing writes during the pass,
	// not next to the validation core the validator keeps writing.
	xr     *Reader
	sc     *xmltok.Scanner
	syms   *xmltok.SymTab
	d      *dtd.DTD
	cfg    PipelineConfig
	staged bool

	// Inline-form state: the one batch Next fills and the sticky
	// terminal error.
	ib   *Batch
	ierr error

	// ctxDone is cfg.Ctx's done channel (nil blocks forever when no
	// context is configured).
	ctxDone <-chan struct{}

	quit   chan struct{}
	tvFull chan *TokBatch
	tvFree chan *TokBatch
	vdFull chan *Batch
	vdFree chan *Batch
	wg     sync.WaitGroup
	closed bool

	// Tokenizer-stage state: the projection automaton stack, the
	// sym→declaration cache for skip decisions (tundecl marks symbols
	// with no declaration: delivered, reported by the validator), and
	// the validate-mode interior depth.
	pauto  *proj.Automaton
	pfast  bool
	pvocab bool
	tstack []int32
	tselem []*dtd.Element
	tundec []bool
	vskip  int
	// terr/terrLine are the tokenizer's terminal condition, published to
	// the validator by closing tvFull.
	terr     error
	terrLine int
	tokStats ScanStats
	tokStall int64
	tokPeak  int

	// Validator-stage state. vname caches sym→owned name bytes for
	// vcore, which keys on byte slices (one small allocation per
	// distinct name per stream).
	vname    [][]byte
	verr     error
	valStats ScanStats
	valStall int64
	valPeak  int

	// Caller-side counters.
	dispStall int64
	batches   int64
}

var pipePool sync.Pool

// NewPipeline starts a pass over rd under DTD d. In the staged form the
// two stage goroutines run until the stream's terminal condition or
// Close; the inline form starts none.
func NewPipeline(rd io.Reader, d *dtd.DTD, cfg PipelineConfig) *Pipeline {
	var p *Pipeline
	if v := pipePool.Get(); v != nil {
		p = v.(*Pipeline)
		p.xr.Reset(rd, d)
	} else {
		p = &Pipeline{xr: NewReader(rd, d)}
	}
	if cfg.Width <= 0 {
		cfg.Width = Width()
	}
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = DefaultBatchEvents
	}
	if cfg.ProjMode == proj.ModeOff {
		cfg.Proj = nil
	}
	p.sc, p.syms = p.xr.sc, p.xr.sc.Syms()
	p.d = d
	p.cfg = cfg
	p.staged = cfg.Width >= 2
	p.ctxDone = nil
	if cfg.Ctx != nil {
		p.ctxDone = cfg.Ctx.Done()
	}
	p.batches = 0
	p.closed = false
	if !p.staged {
		p.xr.SetProjection(cfg.Proj, cfg.ProjMode)
		p.ib = GetBatch()
		p.ierr = nil
		return p
	}
	p.pauto = cfg.Proj
	p.pfast = cfg.ProjMode == proj.ModeFast
	p.pvocab = cfg.Proj != nil && cfg.Proj.HasVocab()
	p.tstack = p.tstack[:0]
	if p.pauto != nil {
		p.tstack = append(p.tstack, p.pauto.Start())
	}
	for i := range p.tselem {
		p.tselem[i] = nil
		p.tundec[i] = false
	}
	p.vskip = 0
	p.terr, p.terrLine = nil, 0
	p.tokStats, p.valStats = ScanStats{}, ScanStats{}
	p.tokStall, p.valStall, p.dispStall = 0, 0, 0
	p.tokPeak, p.valPeak = 0, 0
	for i := range p.vname {
		p.vname[i] = nil
	}
	p.verr = nil

	r := ringDepth
	p.quit = make(chan struct{})
	p.tvFull = make(chan *TokBatch, r)
	p.tvFree = make(chan *TokBatch, r+1)
	p.vdFull = make(chan *Batch, r)
	p.vdFree = make(chan *Batch, r+1)
	// Fixed batch populations: stages only recirculate, so free-ring
	// sends below never block.
	for i := 0; i < r+1; i++ {
		p.tvFree <- getTokBatch()
		p.vdFree <- GetBatch()
	}

	p.wg.Add(2)
	go p.tokRun()
	go p.valRun()
	return p
}

// Staged reports whether the pass runs its tokenize and validate stages
// on their own goroutines (width >= 2) rather than inline.
func (p *Pipeline) Staged() bool { return p.staged }

// Next returns the next validated batch, or the pass's terminal error
// once the stream is drained: io.EOF after a well-formed, valid
// document, the first stream or validation error otherwise. The batch
// (including every byte view) is owned by the caller until Recycle,
// which must come before the next call.
func (p *Pipeline) Next() (*Batch, error) {
	if !p.staged {
		return p.nextInline()
	}
	var vb *Batch
	var ok bool
	select {
	case vb, ok = <-p.vdFull:
	default:
		start := time.Now()
		select {
		case vb, ok = <-p.vdFull:
		case <-p.ctxDone:
			p.dispStall += time.Since(start).Nanoseconds()
			return nil, p.cfg.Ctx.Err()
		}
		p.dispStall += time.Since(start).Nanoseconds()
	}
	if !ok {
		return nil, p.verr
	}
	p.batches++
	return vb, nil
}

// nextInline is Next for width 1: it fills one reused batch from the
// Reader. Events validated before a stream error are still delivered;
// the error follows on the next call.
func (p *Pipeline) nextInline() (*Batch, error) {
	if p.ierr != nil {
		return nil, p.ierr
	}
	if p.ctxDone != nil {
		select {
		case <-p.ctxDone:
			p.ierr = p.cfg.Ctx.Err()
			return nil, p.ierr
		default:
		}
	}
	if p.cfg.Throttle != nil {
		if err := p.cfg.Throttle(); err != nil {
			p.ierr = err
			return nil, err
		}
	}
	b := p.ib
	b.Reset()
	for b.Len() < p.cfg.BatchEvents && b.ArenaBytes() < DefaultBatchBytes {
		ev, err := p.xr.NextEvent()
		if err != nil {
			p.ierr = err
			break
		}
		b.Append(ev)
	}
	if b.Len() == 0 {
		return nil, p.ierr
	}
	p.batches++
	return b, nil
}

// Recycle returns a batch obtained from Next, together with the raw
// token batch backing its views, to the pipeline's rings. The inline
// form refills its one batch in place, so there is nothing to return.
func (p *Pipeline) Recycle(b *Batch) {
	if !p.staged {
		return
	}
	tb := b.src
	b.src = nil
	if tb != nil {
		select {
		case p.tvFree <- tb:
		default:
			putTokBatch(tb)
		}
	}
	select {
	case p.vdFree <- b:
	default:
		PutBatch(b)
	}
}

// Close unblocks and joins the stages, releases the batch population and
// returns the pass's scan statistics, stage metrics and terminal error
// (nil after a clean end-of-stream). It must be called exactly once.
func (p *Pipeline) Close() (ScanStats, PipeStats, error) {
	if p.closed {
		return ScanStats{}, PipeStats{}, fmt.Errorf("xsax: pipeline closed twice")
	}
	p.closed = true
	if !p.staged {
		PutBatch(p.ib)
		p.ib = nil
		err := p.ierr
		if err == io.EOF {
			err = nil
		}
		sc, ps := p.xr.ScanStats(), PipeStats{Batches: p.batches}
		pipePool.Put(p)
		return sc, ps, err
	}
	close(p.quit)
	p.wg.Wait()
	// Stages are joined: drain the rings back into the pools. The full
	// rings are closed by their producers, so a drained recv yields nil.
	for tb := range p.tvFull {
		putTokBatch(tb)
	}
	for vb := range p.vdFull {
		if vb.src != nil {
			putTokBatch(vb.src)
			vb.src = nil
		}
		PutBatch(vb)
	}
	for {
		select {
		case tb := <-p.tvFree:
			putTokBatch(tb)
			continue
		default:
		}
		break
	}
	for {
		select {
		case vb := <-p.vdFree:
			PutBatch(vb)
			continue
		default:
		}
		break
	}

	sc := ScanStats{
		EventsDelivered: p.valStats.EventsDelivered,
		EventsSkipped:   p.tokStats.EventsSkipped + p.valStats.EventsSkipped,
		SubtreesSkipped: p.tokStats.SubtreesSkipped,
		BytesSkipped:    p.tokStats.BytesSkipped,
		BytesRead:       p.sc.Offset(),
	}
	ps := PipeStats{
		Batches:     p.batches,
		TokStall:    time.Duration(p.tokStall),
		ValStall:    time.Duration(p.valStall),
		DispStall:   time.Duration(p.dispStall),
		TokRingPeak: p.tokPeak,
		ValRingPeak: p.valPeak,
	}
	err := p.verr
	if err == io.EOF {
		err = nil
	}
	pipePool.Put(p)
	return sc, ps, err
}

// ---------------------------------------------------------------------
// Tokenizer stage

func (p *Pipeline) tokRun() {
	defer p.wg.Done()
	defer close(p.tvFull)
	for {
		tb, ok := recvFree(p.tvFree, p.quit, &p.tokStall)
		if !ok {
			return
		}
		tb.Reset()
		if p.cfg.Throttle != nil {
			if err := p.cfg.Throttle(); err != nil {
				// Cancelled at the backpressure point: the error is the
				// pass's terminal condition, published like a stream error.
				p.terr = err
				p.terrLine = p.sc.Line()
				select {
				case p.tvFree <- tb:
				default:
					putTokBatch(tb)
				}
				return
			}
		}
		var terminal bool
		for tb.Len() < p.cfg.BatchEvents && tb.ArenaBytes() < DefaultBatchBytes {
			ev, err := p.sc.NextEvent()
			if err == nil {
				err = p.tokEmit(tb, ev)
			}
			if err != nil {
				p.terr = err
				p.terrLine = p.sc.Line()
				terminal = true
				break
			}
		}
		if tb.Len() > 0 {
			if !p.tokSend(tb) {
				return
			}
		} else {
			select {
			case p.tvFree <- tb:
			default:
				putTokBatch(tb)
			}
		}
		if terminal {
			return
		}
	}
}

// recvFree takes an empty batch off a stage's free ring. The free ring
// runs dry only when every batch of the fixed population is downstream,
// so a wait here is the stage blocked on its consumer and is accounted
// as the stage's stall, like a wait on a full ring. ok is false when the
// pass was abandoned.
func recvFree[B any](free <-chan B, quit <-chan struct{}, stall *int64) (b B, ok bool) {
	select {
	case b = <-free:
		return b, true
	default:
	}
	start := time.Now()
	select {
	case b = <-free:
		*stall += time.Since(start).Nanoseconds()
		return b, true
	case <-quit:
		return b, false
	}
}

// tokSend hands a full batch downstream, accounting blocked time as the
// tokenizer stage's stall. It reports false when the pass was abandoned
// or an injected ring fault dropped the hand-off (the fault becomes the
// pass's terminal error).
func (p *Pipeline) tokSend(tb *TokBatch) bool {
	if err := faultinj.Hit(faultinj.SiteRingToken); err != nil {
		p.terr = err
		p.terrLine = p.sc.Line()
		putTokBatch(tb)
		return false
	}
	select {
	case p.tvFull <- tb:
	default:
		start := time.Now()
		select {
		case p.tvFull <- tb:
			p.tokStall += time.Since(start).Nanoseconds()
		case <-p.quit:
			return false
		}
	}
	if n := len(p.tvFull); n > p.tokPeak {
		p.tokPeak = n
	}
	return true
}

// tokElem resolves a start tag's symbol to its declaration for the skip
// decision, caching per symbol. A nil result with ok=true means the name
// has no declaration: the event is delivered un-projected and the
// validator reports the error at the same position the sequential reader
// would.
func (p *Pipeline) tokElem(sym xmltok.Sym, name []byte) *dtd.Element {
	if int(sym) < len(p.tselem) {
		if e := p.tselem[sym]; e != nil {
			return e
		}
		if p.tundec[sym] {
			return nil
		}
	}
	for int(sym) >= len(p.tselem) {
		p.tselem = append(p.tselem, nil)
		p.tundec = append(p.tundec, false)
	}
	e := p.d.ElementBytes(name)
	if e == nil {
		p.tundec[sym] = true
		return nil
	}
	p.tselem[sym] = e
	return e
}

// tokEmit applies the projection automaton to one scanner event and
// appends the verdict-flagged raw event(s) to tb.
func (p *Pipeline) tokEmit(tb *TokBatch, ev *xmltok.Event) error {
	line := p.sc.Line()
	if p.pauto == nil {
		tb.Append(ev, 0, line)
		return nil
	}
	if p.vskip > 0 {
		// Inside a validate-mode pruned subtree: everything is tagged
		// for validation without delivery, except the closing end tag.
		switch ev.Kind {
		case xmltok.StartElement:
			p.vskip++
			tb.Append(ev, tokInterior, line)
		case xmltok.EndElement:
			p.vskip--
			if p.vskip == 0 {
				tb.Append(ev, tokShellEnd, line)
			} else {
				tb.Append(ev, tokInterior, line)
			}
		default:
			tb.Append(ev, tokInterior, line)
		}
		return nil
	}
	switch ev.Kind {
	case xmltok.StartElement:
		top := p.tstack[len(p.tstack)-1]
		e := p.tokElem(ev.Sym(), ev.NameBytes())
		if e == nil {
			// Undeclared element: no skip decision is possible; deliver
			// it (the validator rejects it) and keep the stack balanced
			// in case the scan runs ahead of the error.
			tb.Append(ev, 0, line)
			p.tstack = append(p.tstack, top)
			return nil
		}
		var next int32
		if p.pvocab {
			next = p.pauto.ChildID(top, e.ID())
		} else {
			next = p.pauto.Child(top, e.Name)
		}
		if next != proj.StateSkip {
			tb.Append(ev, 0, line)
			p.tstack = append(p.tstack, next)
			return nil
		}
		// Pruned subtree: the start goes downstream as a shell.
		p.tokStats.SubtreesSkipped++
		tb.Append(ev, tokShellStart, line)
		if !p.pfast {
			p.vskip = 1
			return nil
		}
		c, err := p.sc.SkipSubtree(e.Name)
		p.tokStats.BytesSkipped += c.Bytes
		p.tokStats.EventsSkipped += c.Events
		if err != nil {
			return err
		}
		tb.AppendSynth(xmltok.EndElement, ev.Sym(), tokShellEndFast, p.sc.Line())
	case xmltok.EndElement:
		if len(p.tstack) > 1 {
			p.tstack = p.tstack[:len(p.tstack)-1]
		}
		tb.Append(ev, 0, line)
	case xmltok.Text:
		var flags uint8
		if !p.pauto.Text(p.tstack[len(p.tstack)-1]) {
			flags = tokTextDrop
		}
		tb.Append(ev, flags, line)
	default:
		tb.Append(ev, 0, line)
	}
	return nil
}

// ---------------------------------------------------------------------
// Validator stage

func (p *Pipeline) valRun() {
	defer p.wg.Done()
	defer close(p.vdFull)
	for {
		var tb *TokBatch
		var ok bool
		select {
		case tb, ok = <-p.tvFull:
		case <-p.quit:
			return
		}
		if !ok {
			// Tokenizer terminal: convert a rootless clean EOF like the
			// sequential reader does.
			if p.terr == io.EOF && !p.xr.vcore.sawRoot {
				p.verr = fmt.Errorf("xsax: line %d: document has no root element", p.terrLine)
			} else {
				p.verr = p.terr
			}
			return
		}
		vb, ok := recvFree(p.vdFree, p.quit, &p.valStall)
		if !ok {
			return
		}
		vb.Reset()
		var verr error
		for i := range tb.Events {
			if verr = p.valEvent(vb, &tb.Events[i]); verr != nil {
				break
			}
		}
		// Events validated before an error are still delivered, exactly
		// as the sequential dispatcher delivers a partial batch before
		// reporting the stream's error.
		vb.src = tb
		if vb.Len() > 0 {
			if !p.valSend(vb) {
				return
			}
		} else {
			vb.src = nil
			select {
			case p.tvFree <- tb:
			default:
				putTokBatch(tb)
			}
			select {
			case p.vdFree <- vb:
			default:
				PutBatch(vb)
			}
		}
		if verr != nil {
			p.verr = verr
			return
		}
	}
}

func (p *Pipeline) valSend(vb *Batch) bool {
	if err := faultinj.Hit(faultinj.SiteRingEvent); err != nil {
		p.verr = err
		if vb.src != nil {
			putTokBatch(vb.src)
			vb.src = nil
		}
		PutBatch(vb)
		return false
	}
	select {
	case p.vdFull <- vb:
	default:
		start := time.Now()
		select {
		case p.vdFull <- vb:
			p.valStall += time.Since(start).Nanoseconds()
		case <-p.quit:
			return false
		}
	}
	if n := len(p.vdFull); n > p.valPeak {
		p.valPeak = n
	}
	return true
}

func (p *Pipeline) valErrf(te *TokEvent, err error) error {
	return fmt.Errorf("xsax: line %d: %s", te.Line, err)
}

// nameOf resolves an element symbol to owned name bytes for vcore (one
// allocation per distinct name per stream; the scanner's symbol table is
// safe to read while the tokenizer stage interns ahead).
func (p *Pipeline) nameOf(sym xmltok.Sym) []byte {
	if sym == xmltok.NoSym {
		return nil
	}
	if int(sym) < len(p.vname) {
		if nb := p.vname[sym]; nb != nil {
			return nb
		}
	}
	nb := []byte(p.syms.Name(sym))
	for int(sym) >= len(p.vname) {
		p.vname = append(p.vname, nil)
	}
	p.vname[sym] = nb
	return nb
}

// valEvent validates one raw event and appends its validated form to vb
// unless the tokenizer's projection verdict suppresses delivery.
func (p *Pipeline) valEvent(vb *Batch, te *TokEvent) error {
	if te.Flags&tokInterior != 0 {
		// Validate-mode pruned interior: full validation, no delivery.
		switch te.Kind {
		case xmltok.StartElement:
			if _, err := p.xr.vcore.start(te.Sym, p.nameOf(te.Sym), te.Attrs); err != nil {
				return p.valErrf(te, err)
			}
		case xmltok.EndElement:
			if _, err := p.xr.vcore.end(te.Sym, p.nameOf(te.Sym)); err != nil {
				return p.valErrf(te, err)
			}
		case xmltok.Text:
			deliver, err := p.xr.vcore.text(te.Data)
			if err != nil {
				return p.valErrf(te, err)
			}
			if !deliver {
				// Insignificant whitespace never counts as skipped.
				return nil
			}
		}
		p.valStats.EventsSkipped++
		return nil
	}
	switch te.Kind {
	case xmltok.StartElement:
		e, err := p.xr.vcore.start(te.Sym, p.nameOf(te.Sym), te.Attrs)
		if err != nil {
			return p.valErrf(te, err)
		}
		attrs := te.Attrs
		if te.Flags&tokShellStart != 0 {
			// Nothing downstream reads a pruned element's attributes
			// (they were still validated above).
			attrs = nil
		}
		ev := vb.slot(xmltok.StartElement)
		ev.Name, ev.Elem, ev.Attrs, ev.tab = e.Name, e, attrs, p.syms
	case xmltok.EndElement:
		var e *dtd.Element
		if te.Flags&tokShellEndFast != 0 {
			// The interior was bulk-skipped unvalidated, so the content
			// model's accepting state cannot be checked.
			e = p.xr.vcore.popShell()
		} else {
			var err error
			if e, err = p.xr.vcore.end(te.Sym, p.nameOf(te.Sym)); err != nil {
				return p.valErrf(te, err)
			}
		}
		ev := vb.slot(xmltok.EndElement)
		ev.Name, ev.Elem = e.Name, e
	case xmltok.Text:
		deliver, err := p.xr.vcore.text(te.Data)
		if err != nil {
			return p.valErrf(te, err)
		}
		if !deliver {
			return nil
		}
		if te.Flags&tokTextDrop != 0 {
			p.valStats.EventsSkipped++
			return nil
		}
		vb.slot(xmltok.Text).Data = te.Data
	case xmltok.ProcInst:
		ev := vb.slot(xmltok.ProcInst)
		ev.Name, ev.Data = p.syms.Name(te.Sym), te.Data
	default:
		vb.slot(te.Kind).Data = te.Data
	}
	if p.pauto != nil {
		p.valStats.EventsDelivered++
	}
	return nil
}
