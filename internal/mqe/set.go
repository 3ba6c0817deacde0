package mqe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery/internal/bufmgr"
	"fluxquery/internal/dtd"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/flightrec"
	"fluxquery/internal/proj"
	"fluxquery/internal/runtime"
	"fluxquery/internal/shared"
	"fluxquery/internal/telemetry"
	"fluxquery/internal/xsax"
)

// ErrUnregistered aborts a subscription's in-flight evaluation when it is
// unregistered mid-stream; it is then reported as that run's result.
var ErrUnregistered = errors.New("mqe: subscription unregistered during streaming")

// ErrNotRun is reported by Sub.Result before the subscription has
// completed any run.
var ErrNotRun = errors.New("mqe: subscription has not completed a run")

// Set is a registry of compiled plans riding a shared event stream.
// Plans are registered with a per-plan output writer; each pass
// (RunPass) evaluates the registered plans — all of them, or the subset
// its sinks select — over one document in a single tokenize+validate
// pass. Register and Unregister are safe to call concurrently with
// passes: a registration takes effect at the next pass, an
// unregistration detaches the subscription from an in-flight pass at the
// next batch boundary (aborting it with ErrUnregistered). Passes given
// their own sinks run concurrently with each other.
type Set struct {
	d *dtd.DTD

	// runMu serializes the passes that write to the registration-time
	// writers: two of them would interleave on the same writer. A pass
	// given its own sinks does not take it.
	runMu sync.Mutex

	mu   sync.Mutex
	subs []*Sub
	// gen counts registration changes. route is the compiled routing of
	// the full subscription list at generation route.gen, rebuilt by the
	// first full pass after a change (registering K plans costs one
	// build, not K). Routings are immutable: an in-flight pass keeps the
	// one it took even as registrations replace it.
	gen   uint64
	route *routing
	pmode proj.Mode
	// dispatch selects how a pass fans events out; under DispatchTrie
	// each routing also carries the dispatch trie.
	dispatch DispatchMode
	// sstats is the DTD's schema-statistics bundle, computed once on
	// first registration (outside mu) and reused for every plan's
	// dispatch-cost estimate.
	statsOnce sync.Once
	sstats    *shared.SchemaStats
	// bufs, when non-nil, governs the buffer memory of shared passes:
	// each pass opens one gate (the pass's backpressure point) and one
	// account per riding plan, so a budget violation is attributed — and,
	// under bufmgr.PolicyFail, confined — to the individual plan.
	bufs *bufmgr.Manager
	// mt is the resolved telemetry instrument bundle (nil = disabled).
	mt *setMetrics
	// rec, when non-nil, receives every pass's record (success or
	// failure); when its slow-pass capture policy is armed, every pass
	// builds a span tree that the recorder retains only for slow passes.
	rec *flightrec.Recorder
	// ledger, when non-nil, accrues per-query cost attribution (eval
	// CPU, delivered data, buffer peaks, errors) across passes, keyed
	// by registration name.
	ledger *Ledger
	// nameSeq numbers unnamed registrations for telemetry labels.
	nameSeq int
}

// routing is the compiled delivery structure of one subscription list:
// the union skip automaton of the plans' projection path-sets (nil for
// an empty list, whose pass stays a full validation pass) and, under
// trie dispatch, the dispatch trie over the plans' delivery classes. The
// trie's plan indices are class indices; members maps each class to the
// indices in subs riding it.
type routing struct {
	gen     uint64
	subs    []*Sub
	auto    *proj.Automaton
	trie    *shared.Trie
	members [][]int32
	// maxFan is the widest per-subscription fan-out any interned list
	// reaches once class membership is multiplied back in; build is the
	// trie's build time.
	maxFan int
	build  time.Duration
}

// NewSet returns a Set for streams governed by d.
func NewSet(d *dtd.DTD) *Set {
	return &Set{d: d}
}

// Sub is one registered (plan, output) subscription.
type Sub struct {
	set     *Set
	plan    *runtime.Plan
	name    string
	out     io.Writer
	removed atomic.Bool
	// cost is the plan's expected delivered-event count under the set's
	// schema statistics (shared.PlanCostInt), stamped at registration;
	// the evaluator pool orders its worker stripes by it.
	cost int

	// last is the outcome of the most recent pass that included the
	// subscription (ran is false before any).
	mu   sync.Mutex
	ran  bool
	last QueryResult
}

// Register adds a plan to the set, streaming its result to out on every
// subsequent pass that does not supply its own sinks (out may be nil
// when every pass will). The plan must be compiled against the set's
// DTD: events carry names interned in one schema, and a plan scheduled
// under a different schema would mis-dispatch on them. An equal DTD
// parsed separately qualifies: DTDs are compared by their fingerprints.
func (s *Set) Register(p *runtime.Plan, out io.Writer) (*Sub, error) {
	return s.RegisterNamed(p, out, "")
}

// RegisterNamed is Register with a display name labelling the plan's
// telemetry series and trace spans ("" derives q1, q2, ... in
// registration order).
func (s *Set) RegisterNamed(p *runtime.Plan, out io.Writer, name string) (*Sub, error) {
	if pd := p.DTD(); pd != s.d && pd.Fingerprint() != s.d.Fingerprint() {
		return nil, fmt.Errorf("mqe: plan compiled against a different DTD (root <%s>, stream root <%s>)",
			p.DTD().Root, s.d.Root)
	}
	s.statsOnce.Do(func() { s.sstats = shared.ComputeStats(s.d) })
	b := &Sub{set: s, plan: p, out: out, cost: shared.PlanCostInt(p.Paths(), p.NeedShells(), s.sstats)}
	s.mu.Lock()
	s.nameSeq++
	if name == "" {
		name = fmt.Sprintf("q%d", s.nameSeq)
	}
	b.name = name
	s.subs = append(s.subs, b)
	s.gen++
	s.mu.Unlock()
	return b, nil
}

// SetDispatch selects how shared passes fan events out to the riding
// plans: DispatchFanout (the default) delivers every batch to every
// plan, DispatchTrie routes events through the shared dispatch trie so
// per-event cost tracks the distinct registered paths rather than the
// registration count. Takes effect at the next pass.
func (s *Set) SetDispatch(m DispatchMode) {
	s.mu.Lock()
	s.dispatch = m
	s.mu.Unlock()
}

// SetProjection selects how shared passes treat stream regions no
// registered plan can use: proj.ModeFast (the default) bulk-skips them in
// the tokenizer, proj.ModeValidate still validates them fully, and
// proj.ModeOff delivers every event. Takes effect at the next pass.
func (s *Set) SetProjection(m proj.Mode) {
	s.mu.Lock()
	s.pmode = m
	s.mu.Unlock()
}

// SetBuffers installs the buffer manager governing shared passes (nil =
// unmanaged). Takes effect at the next pass.
func (s *Set) SetBuffers(m *bufmgr.Manager) {
	s.mu.Lock()
	s.bufs = m
	s.mu.Unlock()
}

// SetTelemetry publishes the set's pass metrics on reg (nil disables).
// Instruments are resolved once here; passes then update them with plain
// atomic operations. Takes effect at the next pass.
func (s *Set) SetTelemetry(reg *telemetry.Registry) {
	mt := newSetMetrics(reg)
	s.mu.Lock()
	s.mt = mt
	s.mu.Unlock()
}

// SetRecorder installs the flight recorder receiving every pass's
// record, success or failure (nil disables). When the recorder's
// slow-pass capture policy is armed, subsequent passes build a span tree
// even when not traced, so a slow pass dumps with full stage
// attribution. Takes effect at the next pass.
func (s *Set) SetRecorder(rec *flightrec.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// Recorder returns the installed flight recorder (nil when none).
func (s *Set) Recorder() *flightrec.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// SetLedger installs the per-query cost ledger (nil disables): every
// pass folds each riding plan's cost — evaluator CPU, delivered events,
// output bytes, buffer peaks, errors — into the ledger entry of its
// registration name. Takes effect at the next pass.
func (s *Set) SetLedger(l *Ledger) {
	s.mu.Lock()
	s.ledger = l
	s.mu.Unlock()
}

// Ledger returns the installed cost ledger (nil when none).
func (s *Set) Ledger() *Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger
}

// compileRouting builds the routing of subs: the union skip automaton
// and, when withTrie, the dispatch trie. It takes no lock.
func (s *Set) compileRouting(subs []*Sub, withTrie bool, mt *setMetrics) *routing {
	rt := &routing{subs: subs}
	names := s.d.IDNames()
	if len(subs) > 0 {
		sets := make([]*proj.PathSet, len(subs))
		for i, b := range subs {
			sets[i] = b.plan.Paths()
		}
		// Compiled over the stream DTD's name-id vocabulary so the shared
		// pass dispatches verdicts with slice loads. Plans ride with their
		// own (equivalent) DTD: equal fingerprints assign identical ids,
		// which Register's equivalence check guarantees.
		rt.auto = proj.CompileVocab(proj.Union(sets...), names)
	}
	if !withTrie {
		return rt
	}
	// Class the subscriptions by delivery behavior before building: two
	// registrations of the same compiled plan (pointer-identical
	// projection automaton, same shell requirement) receive identical
	// event streams, so the trie is built over the distinct classes and
	// the dispatcher copies each event once per class, fanning to the
	// class members only at flush. Per-event dispatch cost then tracks
	// the distinct registered path families even when thousands of
	// subscriptions share them. Distinct compilations of an identical
	// query form separate (correct, merely undeduplicated) classes.
	type classKey struct {
		auto   *proj.Automaton
		shells bool
	}
	idx := make(map[classKey]int32, len(subs))
	reqs := make([]shared.PlanReq, 0, len(subs))
	for i, b := range subs {
		k := classKey{b.plan.ProjAutomaton(), b.plan.NeedShells()}
		c, ok := idx[k]
		if !ok {
			c = int32(len(reqs))
			idx[k] = c
			reqs = append(reqs, shared.PlanReq{Auto: k.auto, NeedShells: k.shells})
			rt.members = append(rt.members, nil)
		}
		rt.members[c] = append(rt.members[c], int32(i))
	}
	t0 := time.Now()
	rt.trie = shared.Build(reqs, len(names))
	rt.build = time.Since(t0)
	for li := 0; li < rt.trie.NumLists(); li++ {
		n := 0
		for _, c := range rt.trie.List(int32(li)) {
			n += len(rt.members[c])
		}
		rt.maxFan = max(rt.maxFan, n)
	}
	if mt != nil {
		mt.recordTrieBuild(rt.trie, rt.maxFan)
	}
	return rt
}

// routingFor returns the routing a pass over sinks rides (nil sinks:
// every subscription). A pass over every subscription rides the cached
// routing, compiling it first when a registration change made it stale;
// a subset pass compiles a routing over just its subset. Compilation
// runs outside s.mu, so registrations are never blocked behind it; a
// routing whose generation was overtaken meanwhile still serves its own
// pass (an in-flight pass tolerates stale routing the same way) but is
// not cached.
func (s *Set) routingFor(sinks map[*Sub]io.Writer, withTrie bool, mt *setMetrics) *routing {
	s.mu.Lock()
	subs := s.subs
	if sinks != nil {
		subs = make([]*Sub, 0, len(sinks))
		for _, b := range s.subs {
			if _, ok := sinks[b]; ok {
				subs = append(subs, b)
			}
		}
	}
	full := len(subs) == len(s.subs)
	gen := s.gen
	if rt := s.route; full && rt != nil && rt.gen == gen && (rt.trie != nil || !withTrie) {
		s.mu.Unlock()
		return rt
	}
	if sinks == nil {
		// Unregister splices s.subs in place; the routing keeps a copy.
		subs = append([]*Sub(nil), subs...)
	}
	s.mu.Unlock()
	rt := s.compileRouting(subs, withTrie, mt)
	if full {
		rt.gen = gen
		s.mu.Lock()
		if s.gen == gen {
			s.route = rt
		}
		s.mu.Unlock()
	}
	return rt
}

// Unregister removes the subscription. An in-flight pass detaches it at
// the next batch boundary, recording ErrUnregistered as its result.
// Unregister is idempotent.
func (b *Sub) Unregister() {
	if b.removed.Swap(true) {
		return
	}
	s := b.set
	s.mu.Lock()
	for i, x := range s.subs {
		if x == b {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	s.gen++
	s.mu.Unlock()
}

// Len returns the number of registered subscriptions.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Result returns the subscription's outcome from the most recent pass
// that included it: the execution statistics, and the error that ended
// it (nil for a clean evaluation). Concurrent passes race for "most
// recent"; a pass's own outcome is in its PassResult.
func (b *Sub) Result() (runtime.Stats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ran {
		return runtime.Stats{}, ErrNotRun
	}
	return b.last.Stats, b.last.Err
}

// Duration returns the wall-clock time of the subscription's most recent
// pass (all subscriptions of one pass ride the same clock).
func (b *Sub) Duration() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last.Duration
}

// PassOptions configures one RunPass.
type PassOptions struct {
	// Sinks, when non-nil, selects the subscriptions the pass runs and
	// gives each the writer its result streams to; subscriptions not
	// registered when the pass starts are left out. When nil, every
	// registered subscription runs and writes to its registration-time
	// writer, and the pass is serialized with other such passes.
	Sinks map[*Sub]io.Writer
	// RequestID labels the pass's record (and a slow-pass dump) with the
	// driving request's id, and tags its trace.
	RequestID string
	// Trace captures the pass's span tree into PassResult.Record.Trace.
	Trace bool
}

// QueryResult is one subscription's outcome in one pass.
type QueryResult struct {
	// Stats are the plan's execution statistics; BudgetStall carries the
	// pass-wide backpressure stall.
	Stats runtime.Stats
	// Duration is the pass's wall time up to the plan's settlement.
	Duration time.Duration
	// Err ended the evaluation (nil for a clean one; ErrUnregistered
	// when the subscription was unregistered mid-pass).
	Err error
}

// PassResult is one pass's outcome: its flight record and the outcome
// of every subscription that rode it.
type PassResult struct {
	Record  flightrec.Record
	Queries map[*Sub]QueryResult
}

// Run evaluates every registered plan over one document in a single
// shared tokenize+validate pass; see RunPass.
func (s *Set) Run(r io.Reader) error { return s.RunContext(nil, r) }

// RunContext is Run under a cancellation context; see RunPass.
func (s *Set) RunContext(ctx context.Context, r io.Reader) error {
	_, err := s.RunPass(ctx, r, PassOptions{})
	return err
}

// RunPass evaluates the plans o selects over one document in a single
// shared tokenize+validate pass and returns the pass's record and
// per-plan outcomes. Per-plan failures do not disturb the other plans or
// the stream; RunPass's own error is the stream's: nil on a well-formed,
// valid document.
//
// Under a cancellation context the pass checks ctx at every batch
// boundary, parked stages (gate waits, ring hand-offs) unpark on
// cancellation, and ctx's error becomes both the pass's return and every
// riding plan's terminal error — a cancelled plan always reports the
// cancellation, never a silently truncated result. A nil or
// non-cancellable ctx never cancels.
func (s *Set) RunPass(ctx context.Context, r io.Reader, o PassOptions) (PassResult, error) {
	if o.Sinks == nil {
		s.runMu.Lock()
		defer s.runMu.Unlock()
	}
	s.mu.Lock()
	pmode, dispatch, bufs, mt, recorder, ledger := s.pmode, s.dispatch, s.bufs, s.mt, s.rec, s.ledger
	s.mu.Unlock()
	rt := s.routingFor(o.Sinks, dispatch == DispatchTrie, mt)

	rec := flightrec.Record{
		RequestID:  o.RequestID,
		Projection: pmode.String(),
		Dispatch:   dispatch.String(),
		Plans:      len(rt.subs),
	}
	disp := Dispatcher{DTD: s.d, Proj: rt.auto, ProjMode: pmode}
	if dispatch == DispatchTrie {
		disp.Trie, disp.Members = rt.trie, rt.members
		rec.TrieNodes, rec.TrieLists = rt.trie.NumNodes(), rt.trie.NumLists()
		rec.TrieMaxFanout, rec.TrieBuild = rt.maxFan, rt.build
	}

	// One gate per pass, one account per riding plan: the gate throttles
	// the shared scan under backpressure, the accounts isolate budget
	// enforcement per plan (an over-budget query fails or spills alone).
	gate := bufs.NewGate()
	disp.Gate = gate
	if ctx != nil && ctx.Done() != nil {
		disp.Ctx = ctx
		gate.Bind(ctx)
	}

	// Every pass gets a process-unique id; a trace (span capture) when
	// asked for — or when the flight recorder's slow-pass policy is
	// armed, so a pass that turns out slow dumps with its span tree even
	// though it was not traced. The span tree is built up front on this
	// goroutine — the pass's own synchronization then makes per-span
	// writes safe (one owner per span per batch, barriers between
	// batches).
	var tr *telemetry.Trace
	var obs *PassObs
	if o.Trace || recorder.CapturesSlow() {
		tr = telemetry.NewTrace(o.RequestID)
		rec.PassID = tr.PassID
		obs = &PassObs{Scan: tr.Span().Child("scan"), Dispatch: tr.Span().Child("dispatch")}
		disp.Obs = obs
	} else {
		rec.PassID = telemetry.NextPassID()
	}
	faults0 := faultinj.TotalInjected()

	rec.Start = time.Now()
	runs := make([]subRun, len(rt.subs))
	consumers := make([]Consumer, len(rt.subs))
	for i, b := range rt.subs {
		w := b.out
		if o.Sinks != nil {
			w = o.Sinks[b]
		}
		if w == nil {
			w = io.Discard
		}
		acct := gate.NewAccount()
		runs[i] = subRun{
			sub:     b,
			se:      b.plan.NewStepExecBudgeted(w, acct),
			acct:    acct,
			start:   rec.Start,
			passID:  rec.PassID,
			hist:    mt.evalSeconds(b.name),
			span:    obs.evalSpan(b.name),
			measure: ledger != nil,
		}
		consumers[i] = &runs[i]
	}
	err := disp.runPass(r, consumers, &rec)
	rec.Duration = time.Since(rec.Start)
	rec.GateStall = gate.Stall()
	gate.Close()
	rec.FaultHits = faultinj.TotalInjected() - faults0
	if rec.Duration > 0 {
		rec.MBps = float64(rec.InputBytes) / (1 << 20) / rec.Duration.Seconds()
	}
	if err != nil {
		rec.Err = err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			rec.CancelReason = "deadline"
		case errors.Is(err, context.Canceled):
			rec.CancelReason = "canceled"
		}
	}

	// Every riding plan reports the same full-pass stall (a consumer
	// that settled mid-pass saw only what had accrued by then).
	res := PassResult{Queries: make(map[*Sub]QueryResult, len(runs))}
	for i := range runs {
		rr := &runs[i]
		q := QueryResult{Stats: rr.st, Duration: rr.dur, Err: rr.err}
		q.Stats.BudgetStall = rec.GateStall
		res.Queries[rr.sub] = q
		rr.sub.mu.Lock()
		rr.sub.ran, rr.sub.last = true, q
		rr.sub.mu.Unlock()
		if q.Err != nil && !errors.Is(q.Err, ErrUnregistered) {
			rec.PlanErrors++
		}
		rec.BufferPeak = max(rec.BufferPeak, q.Stats.PeakHeapBufferBytes)
		rec.SpilledBytes += q.Stats.SpilledBytes
		rec.RehydratedBytes += q.Stats.RehydratedBytes
		ledger.record(rr.sub.name, &q.Stats, rr.evalCPU, q.Err)
	}

	if tr != nil {
		stampTrace(tr, obs, &rec)
	}
	if err == nil {
		mt.recordPass(&rec)
	} else {
		mt.cancelled(err)
	}
	if recorder != nil {
		fr := rec
		fr.Trace = tr
		recorder.Record(fr)
	}
	// The result's trace is the caller's tracing feature; a trace built
	// only for slow-pass capture stays out of it.
	if o.Trace {
		rec.Trace = tr
	}
	res.Record = rec
	return res, err
}

// evalSpan resolves the trace span of one riding plan (nil when tracing
// is off). Eval spans hang off the dispatch span: that is the stage that
// hands them their batches.
func (o *PassObs) evalSpan(name string) *telemetry.Span {
	if o == nil {
		return nil
	}
	return o.Dispatch.Child("eval:" + name)
}

// stampTrace finishes a pass's span tree: stage stall attribution, data
// flow and ring peaks from the pass record.
func stampTrace(tr *telemetry.Trace, obs *PassObs, rec *flightrec.Record) {
	root := tr.Span()
	root.AddStall(rec.GateStall)
	obs.Scan.AddBytes(rec.InputBytes)
	obs.Scan.AddEvents(rec.Events)
	if rec.Staged {
		tok := obs.Scan.Child("tokenize")
		tok.AddStall(rec.TokenizeStall)
		tok.SetRingPeak(rec.TokenRingPeak)
		val := obs.Scan.Child("validate")
		val.AddStall(rec.ValidateStall)
		val.SetRingPeak(rec.EventRingPeak)
	}
	tr.End()
}

// subRun drives one subscription's StepExec through a single dispatcher
// pass, keeping the subscription's outcome when the execution settles.
type subRun struct {
	sub   *Sub
	se    *runtime.StepExec
	acct  *bufmgr.Account
	start time.Time
	done  bool
	// passID stamps the pass's process-unique id on the result stats.
	// hist and span (nil when telemetry/tracing are off) receive the
	// plan's per-batch eval latency: BeginFeed stamps t0, EndFeed — which
	// blocks until the plan's evaluator has consumed the batch —
	// observes. One pool worker owns a plan's whole feed per batch, and
	// the per-batch barrier orders batches, so t0 never races.
	passID uint64
	hist   *telemetry.Histogram
	span   *telemetry.Span
	t0     time.Time
	// measure asks for per-batch eval timing for the cost ledger;
	// evalCPU accumulates the plan's per-batch eval wall time, measured
	// on the same t0 clock as hist/span.
	measure bool
	evalCPU time.Duration
	// st, dur and err are the settled outcome.
	st  runtime.Stats
	dur time.Duration
	err error
}

// measures reports whether the run needs per-batch eval timing (any of
// the latency histogram, the trace span or the cost ledger is wired).
func (rr *subRun) measures() bool {
	return rr.hist != nil || rr.span != nil || rr.measure
}

func (rr *subRun) BeginFeed(evs []xsax.Event) {
	if rr.done {
		return
	}
	if rr.sub.removed.Load() {
		rr.finish(ErrUnregistered)
		return
	}
	if rr.measures() {
		rr.t0 = time.Now()
	}
	rr.se.BeginFeed(evs)
}

// FeedCost reports the subscription plan's cost estimate so the
// pass can balance its evaluator worker stripes: the
// schema-statistics expected delivered-event count stamped at
// registration, falling back to the structural estimate.
func (rr *subRun) FeedCost() int {
	if c := rr.sub.cost; c > 0 {
		return c
	}
	return rr.sub.plan.CostEstimate()
}

func (rr *subRun) EndFeed() (done bool, err error) {
	if rr.done {
		return true, nil
	}
	done, err = rr.se.EndFeed()
	if rr.measures() {
		d := time.Since(rr.t0)
		rr.hist.Observe(d.Nanoseconds())
		rr.span.AddTime(d)
		rr.evalCPU += d
	}
	return done, err
}

func (rr *subRun) Close(cause error) {
	if rr.done {
		return
	}
	// A subscription unregistered mid-stream must report ErrUnregistered
	// even if no batch reached it after the unregistration — under trie
	// dispatch a plan whose paths see nothing of the stream tail is never
	// fed again, so the BeginFeed check alone would miss it.
	if rr.sub.removed.Load() {
		rr.finish(ErrUnregistered)
		return
	}
	rr.finish(cause)
}

func (rr *subRun) finish(cause error) {
	rr.done = true
	st, err := rr.se.Close(cause)
	if st != nil {
		rr.st = *st
	}
	if rr.acct != nil {
		as := rr.acct.Close()
		rr.st.PeakHeapBufferBytes = as.PeakBytes
		rr.st.SpilledBytes = as.SpilledBytes
		rr.st.RehydratedBytes = as.RehydratedBytes
	}
	rr.st.PassID = rr.passID
	rr.dur = time.Since(rr.start)
	rr.err = err
}
