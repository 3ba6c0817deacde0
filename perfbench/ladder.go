package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"fluxquery"
	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/mqe"
	"fluxquery/internal/nf"
	"fluxquery/internal/opt"
	"fluxquery/internal/proj"
	"fluxquery/internal/runtime"
	"fluxquery/internal/shared"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

// The traced run replays a workload's inputs up a cumulative ladder of
// calls into each layer's exported functions: scan, +validate,
// +projection, +dispatch, +evaluate, +write. Every call is one span,
// child of its op's span; a layer's self time is the difference
// between its rung and the rung below, and where spans nest (an HTTP
// request around the pass the server reports) the parent's self time
// is its span minus its children.

// unit is one document and the queries that ride it.
type unit struct {
	doc   int
	plans []int
}

func (u unit) key() string {
	return fmt.Sprint(u.plans)
}

// units lists the ladder's ops: xmark-stream passes its one document
// under every query, buffered-spill runs each plan on its own document,
// serve-subscriptions passes each document under every registration.
// buffered-spill has one op per document variant.
func (in *inputs) units() [][]unit {
	all := make([]int, len(in.Queries))
	for i := range all {
		all[i] = i
	}
	switch in.Workload {
	case "buffered-spill":
		ops := make([][]unit, spillVariants)
		for v := range ops {
			for i := range in.Queries {
				ops[v] = append(ops[v], unit{doc: v*len(in.Queries) + i, plans: []int{i}})
			}
		}
		return ops
	default:
		ops := make([][]unit, len(in.Docs))
		for d := range ops {
			ops[d] = []unit{{doc: d, plans: all}}
		}
		return ops
	}
}

// compileStages are the compile chain's layers in order.
var compileStages = []string{"dtd.parse", "xquery.parse", "nf.normalize", "opt.optimize", "core.schedule", "runtime.compile"}

// compileChain compiles every query through the internal chain,
// recording one span per stage call under parent.
func compileChain(rec *recorder, parent int, in *inputs) (map[string]*dtd.DTD, []*runtime.Plan, error) {
	dtds := map[string]*dtd.DTD{}
	for _, k := range sortedKeys(in.DTDs) {
		id := rec.begin("dtd.parse", parent, 0)
		d, err := dtd.Parse(in.DTDs[k])
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("dtd %s: %w", k, err)
		}
		dtds[k] = d
	}
	plans := make([]*runtime.Plan, len(in.Queries))
	for i, q := range in.Queries {
		d := dtds[q.DTD]
		var e xquery.Expr
		var fq *core.Query
		steps := []func() error{
			func() (err error) { e, err = xquery.Parse(q.Src); return },
			func() (err error) { e, err = nf.Normalize(e); return },
			func() (err error) { e, _, err = opt.Optimize(e, d, opt.Options{}); return },
			func() (err error) { fq, err = core.Schedule(e, d); return },
			func() (err error) { plans[i], err = runtime.CompileOptions(fq, runtime.Options{}); return },
		}
		for s, f := range steps {
			if _, err := rec.time(compileStages[s+1], parent, 0, f); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", q.Name, compileStages[s+1], err)
			}
		}
	}
	return dtds, plans, nil
}

// noop consumes a dispatched stream and does nothing with it, so a
// dispatch rung times delivery alone.
type noop struct{}

func (noop) BeginFeed([]xsax.Event) {}
func (noop) EndFeed() (bool, error) { return false, nil }
func (noop) Close(error)            {}

func noops(n int) []mqe.Consumer {
	cs := make([]mqe.Consumer, n)
	for i := range cs {
		cs[i] = noop{}
	}
	return cs
}

func scanAll(b []byte) (int64, error) {
	sc := xmltok.NewScanner(bytes.NewReader(b))
	var n int64
	for {
		if _, err := sc.NextEvent(); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// readAll drains a validating reader, projected through a when a is
// non-nil.
func readAll(b []byte, d *dtd.DTD, a *proj.Automaton, mode proj.Mode) (int64, xsax.ScanStats, error) {
	r := xsax.NewReader(bytes.NewReader(b), d)
	if a != nil {
		r.SetProjection(a, mode)
	}
	var n int64
	for {
		if _, err := r.NextEvent(); err != nil {
			if err == io.EOF {
				return n, r.ScanStats(), nil
			}
			return n, r.ScanStats(), err
		}
		n++
	}
}

// group is what the ladder prepares once per distinct query set: the
// union projection automaton, the dispatch trie, and two long-lived
// StreamSets over the public API, the second with the flight recorder,
// ledger and telemetry attached.
type group struct {
	d        *dtd.DTD
	union    *proj.Automaton
	trie     *shared.Trie
	set, fr  *fluxquery.StreamSet
	regs     []*fluxquery.StreamQuery
	outs     []*bytes.Buffer
	frOuts   []*bytes.Buffer
	pubPlans []*fluxquery.Plan
}

// ladder holds the traced run's state.
type ladder struct {
	in     *inputs
	orc    *oracle
	rec    *recorder
	dtds   map[string]*dtd.DTD
	phys   []*runtime.Plan
	pubDTD map[string]*fluxquery.DTD
	pub    []*fluxquery.Plan // default options
	budg   []*fluxquery.Plan // drawing on bufs
	bufs   *fluxquery.BufferManager
	groups map[string]*group
	// failures and checks count checked outputs.
	attempted, failed int
}

func (l *ladder) check(src string, doc int, out []byte, what string) {
	l.attempted++
	if !l.orc.ok(src, doc, out) {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: trace: %s on document %d: output differs from the reference\n", what, doc)
	}
}

func (l *ladder) group(u unit) (*group, error) {
	if g, ok := l.groups[u.key()]; ok {
		return g, nil
	}
	dk := l.in.Queries[u.plans[0]].DTD
	g := &group{d: l.dtds[dk]}
	sets := make([]*proj.PathSet, len(u.plans))
	reqs := make([]shared.PlanReq, len(u.plans))
	for i, p := range u.plans {
		sets[i] = l.phys[p].Paths()
		reqs[i] = shared.PlanReq{Auto: l.phys[p].ProjAutomaton(), NeedShells: l.phys[p].NeedShells()}
	}
	g.union = proj.CompileVocab(proj.Union(sets...), g.d.IDNames())
	g.trie = shared.Build(reqs, len(g.d.IDNames()))
	g.set = fluxquery.NewStreamSet(l.pubDTD[dk])
	g.fr = fluxquery.NewStreamSet(l.pubDTD[dk])
	g.fr.SetRecorder(fluxquery.NewFlightRecorder(fluxquery.FlightRecorderConfig{}))
	g.fr.SetLedger(fluxquery.NewQueryLedger())
	g.fr.SetTelemetry(fluxquery.NewTelemetry())
	for _, p := range u.plans {
		out, frOut := &bytes.Buffer{}, &bytes.Buffer{}
		name := l.in.Queries[p].Name
		r, err := g.set.RegisterNamed(l.pub[p], out, name)
		if err != nil {
			return nil, err
		}
		if _, err := g.fr.RegisterNamed(l.pub[p], frOut, name); err != nil {
			return nil, err
		}
		g.regs = append(g.regs, r)
		g.outs = append(g.outs, out)
		g.frOuts = append(g.frOuts, frOut)
		g.pubPlans = append(g.pubPlans, l.pub[p])
	}
	l.groups[u.key()] = g
	return g, nil
}

// opStats is what one ladder op measured, summed over its units.
type opStats struct {
	bytes, events, outBytes       int64
	scan, validate, projFast      time.Duration
	projValidate, dispatch, trie  time.Duration
	pipelined, set, setFR, write  time.Duration
	runs, reads                   time.Duration
	budgeted, unbudgeted          time.Duration
	register, cold                time.Duration
	plans                         int
	delivered, bytesSkipped       int64
	trieEvents, trieDeliveries    int64
	firings, mallocs, allocBytes  int64
	spilled, rehydrated, peakHeap int64
	stall                         time.Duration
	perQuery                      map[string]time.Duration
}

// step runs one rung inside a span and adds its time to acc.
func (l *ladder) step(name string, parent, op int, acc *time.Duration, f func() error) error {
	d, err := l.rec.time(name, parent, op, f)
	*acc += d
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (l *ladder) runOp(op int, units []unit) (*opStats, error) {
	st := &opStats{perQuery: map[string]time.Duration{}}
	opSpan := l.rec.begin("ladder.op", 0, op)
	defer l.rec.end(opSpan)
	for _, u := range units {
		g, err := l.group(u)
		if err != nil {
			return nil, err
		}
		doc := l.in.Docs[u.doc].Data
		st.bytes += int64(len(doc))
		if err := l.step("xmltok.scan", opSpan, op, &st.scan, func() (err error) {
			n, err := scanAll(doc)
			st.events += n
			return err
		}); err != nil {
			return nil, err
		}
		if err := l.step("xsax.validate", opSpan, op, &st.validate, func() (err error) {
			_, _, err = readAll(doc, g.d, nil, proj.ModeFast)
			return err
		}); err != nil {
			return nil, err
		}
		var sc xsax.ScanStats
		if err := l.step("proj.fast", opSpan, op, &st.projFast, func() (err error) {
			_, sc, err = readAll(doc, g.d, g.union, proj.ModeFast)
			return err
		}); err != nil {
			return nil, err
		}
		st.delivered += sc.EventsDelivered
		st.bytesSkipped += sc.BytesSkipped
		if err := l.step("proj.validate_mode", opSpan, op, &st.projValidate, func() (err error) {
			_, _, err = readAll(doc, g.d, g.union, proj.ModeValidate)
			return err
		}); err != nil {
			return nil, err
		}
		if err := l.step("mqe.dispatch", opSpan, op, &st.dispatch, func() error {
			dp := mqe.Dispatcher{DTD: g.d, Proj: g.union, ProjMode: proj.ModeFast}
			return dp.Run(bytes.NewReader(doc), noops(len(u.plans)))
		}); err != nil {
			return nil, err
		}
		var ds mqe.DispatchStats
		if err := l.step("mqe.trie_dispatch", opSpan, op, &st.trie, func() error {
			dp := mqe.Dispatcher{DTD: g.d, Proj: g.union, ProjMode: proj.ModeFast, Trie: g.trie, Disp: &ds}
			return dp.Run(bytes.NewReader(doc), noops(len(u.plans)))
		}); err != nil {
			return nil, err
		}
		st.trieEvents += ds.Events
		st.trieDeliveries += ds.Deliveries
		if err := l.step("mqe.pipelined", opSpan, op, &st.pipelined, func() error {
			dp := mqe.Dispatcher{DTD: g.d, Proj: g.union, ProjMode: proj.ModeFast, Parallel: 2}
			return dp.Run(bytes.NewReader(doc), noops(len(u.plans)))
		}); err != nil {
			return nil, err
		}

		// The shared pass over the public API, with allocation counts.
		for _, o := range g.outs {
			o.Reset()
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if err := l.step("mqe.set_pass", opSpan, op, &st.set, func() error {
			return g.set.Run(bytes.NewReader(doc))
		}); err != nil {
			return nil, err
		}
		goruntime.ReadMemStats(&after)
		st.mallocs += int64(after.Mallocs - before.Mallocs)
		st.allocBytes += int64(after.TotalAlloc - before.TotalAlloc)
		for i, p := range u.plans {
			s, err := g.regs[i].Stats()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.in.Queries[p].Name, err)
			}
			st.firings += s.HandlerFirings
			st.outBytes += int64(g.outs[i].Len())
			l.check(l.in.Queries[p].Src, u.doc, g.outs[i].Bytes(), l.in.Queries[p].Name+" (shared pass)")
		}
		for _, o := range g.frOuts {
			o.Reset()
		}
		if err := l.step("flightrec.set_pass", opSpan, op, &st.setFR, func() error {
			return g.fr.Run(bytes.NewReader(doc))
		}); err != nil {
			return nil, err
		}

		// Write: re-emit the pass output through xmltok.Writer.
		var toks []xmltok.Token
		for _, o := range g.outs {
			sc := xmltok.NewScanner(bytes.NewReader(o.Bytes()))
			for {
				t, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("re-tokenizing output: %w", err)
				}
				toks = append(toks, t)
			}
		}
		if err := l.step("xmltok.write", opSpan, op, &st.write, func() error {
			w := xmltok.NewWriter(io.Discard)
			for _, t := range toks {
				w.Token(t)
			}
			return w.Flush()
		}); err != nil {
			return nil, err
		}

		// Per plan: its own projected read, then Plan.Run on top of it,
		// then Execute with and without the buffer budget.
		var out bytes.Buffer
		for _, p := range u.plans {
			q := l.in.Queries[p]
			var read, run time.Duration
			if err := l.step("proj.plan_read", opSpan, op, &read, func() (err error) {
				_, _, err = readAll(doc, g.d, l.phys[p].ProjAutomaton(), proj.ModeFast)
				return err
			}); err != nil {
				return nil, err
			}
			out.Reset()
			if err := l.step("runtime.run", opSpan, op, &run, func() (err error) {
				_, err = l.phys[p].Run(bytes.NewReader(doc), &out)
				return err
			}); err != nil {
				return nil, err
			}
			l.check(q.Src, u.doc, out.Bytes(), q.Name+" (runtime.Plan.Run)")
			st.reads += read
			st.runs += run
			st.perQuery[q.Name] += run - read
			out.Reset()
			if err := l.step("bufmgr.unbudgeted", opSpan, op, &st.unbudgeted, func() (err error) {
				_, err = l.pub[p].Execute(bytes.NewReader(doc), &out)
				return err
			}); err != nil {
				return nil, err
			}
			out.Reset()
			var bs fluxquery.Stats
			if err := l.step("bufmgr.budgeted", opSpan, op, &st.budgeted, func() (err error) {
				bs, err = l.budg[p].Execute(bytes.NewReader(doc), &out)
				return err
			}); err != nil {
				return nil, err
			}
			l.check(q.Src, u.doc, out.Bytes(), q.Name+" (budgeted)")
			st.spilled += bs.SpilledBytes
			st.rehydrated += bs.RehydratedBytes
			st.peakHeap = max(st.peakHeap, bs.PeakHeapBufferBytes)
			st.stall += bs.BudgetStall
		}

		// Registration and the cold pass: a fresh set, every plan
		// registered, then its first pass.
		var cold *fluxquery.StreamSet
		var regTime time.Duration
		if err := l.step("mqe.cold_pass", opSpan, op, &st.cold, func() error {
			if err := l.step("mqe.register", opSpan, op, &regTime, func() error {
				cold = fluxquery.NewStreamSet(l.pubDTD[l.in.Queries[u.plans[0]].DTD])
				for _, p := range g.pubPlans {
					if _, err := cold.Register(p, io.Discard); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			return cold.Run(bytes.NewReader(doc))
		}); err != nil {
			return nil, err
		}
		st.register += regTime
		st.plans += len(u.plans)
	}
	return st, nil
}

// layerMetrics accumulates per-layer values and prints them.
type layerMetrics map[string]metric

func (lm layerMetrics) put(name, unit string, v float64) { lm[name] = metric{v, unit} }

func medianOf(ops []*opStats, f func(*opStats) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return median(sortedCopy(xs))
}

func sumOf(ops []*opStats, f func(*opStats) int64) int64 {
	var n int64
	for _, o := range ops {
		n += f(o)
	}
	return n
}

func durSum(ops []*opStats, f func(*opStats) time.Duration) time.Duration {
	var n time.Duration
	for _, o := range ops {
		n += f(o)
	}
	return n
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runLadder(ctx context.Context, cfg config, in *inputs, orc *oracle, budget time.Duration) (*result, error) {
	start := time.Now()
	share := func(f float64) time.Time { return start.Add(time.Duration(f * float64(budget))) }
	rec := newRecorder()
	l := &ladder{in: in, orc: orc, rec: rec, groups: map[string]*group{}, pubDTD: map[string]*fluxquery.DTD{}}
	lm := layerMetrics{}

	// Compile chain, repeated; each stage's time is summed over the
	// workload's queries and the median repetition is reported.
	stageRuns := map[string][]float64{}
	for rep := 0; rep < 3 || time.Now().Before(share(0.05)); rep++ {
		parent := rec.begin("compile", 0, 0)
		before := len(rec.spans)
		dtds, phys, err := compileChain(rec, parent, in)
		rec.end(parent)
		if err != nil {
			return nil, err
		}
		l.dtds, l.phys = dtds, phys
		sum := map[string]time.Duration{}
		for _, s := range rec.spans[before:] {
			sum[s.Name] += s.dur()
		}
		for _, st := range compileStages {
			stageRuns[st] = append(stageRuns[st], float64(sum[st])/float64(time.Microsecond))
		}
	}
	for _, st := range compileStages {
		lm.put(st+"_us", "us", median(sortedCopy(stageRuns[st])))
	}

	spillDir := filepath.Join(cfg.workdir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	l.bufs = fluxquery.NewBufferManager(spillBudget, fluxquery.BufferSpill, spillDir)
	defer l.bufs.Close()
	for _, k := range sortedKeys(in.DTDs) {
		d, err := fluxquery.ParseDTD(in.DTDs[k])
		if err != nil {
			return nil, err
		}
		l.pubDTD[k] = d
	}
	for _, q := range in.Queries {
		pq, err := fluxquery.ParseQuery(q.Src)
		if err != nil {
			return nil, err
		}
		p, err := fluxquery.Compile(pq, l.pubDTD[q.DTD], fluxquery.Options{})
		if err != nil {
			return nil, err
		}
		b, err := fluxquery.Compile(pq, l.pubDTD[q.DTD], fluxquery.Options{Buffers: l.bufs})
		if err != nil {
			return nil, err
		}
		l.pub = append(l.pub, p)
		l.budg = append(l.budg, b)
	}

	// The ladder itself.
	units := in.units()
	var ops []*opStats
	for op := 0; op < 1 || time.Now().Before(share(0.5)); op++ {
		st, err := l.runOp(op+1, units[op%len(units)])
		if err != nil {
			return nil, err
		}
		ops = append(ops, st)
	}
	bytesTotal := sumOf(ops, func(o *opStats) int64 { return o.bytes })
	lm.put("xmltok.scan_mb_s", "MB/s", float64(bytesTotal)/1e6/durSum(ops, func(o *opStats) time.Duration { return o.scan }).Seconds())
	lm.put("xmltok.events", "count", medianOf(ops, func(o *opStats) float64 { return float64(o.events) }))
	lm.put("xmltok.write_mb_s", "MB/s", float64(sumOf(ops, func(o *opStats) int64 { return o.outBytes }))/1e6/
		durSum(ops, func(o *opStats) time.Duration { return o.write }).Seconds())
	diff := func(a, b func(*opStats) time.Duration) float64 {
		return medianOf(ops, func(o *opStats) float64 { return ms(a(o) - b(o)) })
	}
	scan := func(o *opStats) time.Duration { return o.scan }
	projFast := func(o *opStats) time.Duration { return o.projFast }
	dispatch := func(o *opStats) time.Duration { return o.dispatch }
	lm.put("xsax.validate_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.validate }, scan))
	lm.put("proj.fast_self_ms", "ms", diff(projFast, scan))
	lm.put("proj.validate_mode_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.projValidate }, scan))
	lm.put("proj.delivered_ratio", "ratio", ratio(sumOf(ops, func(o *opStats) int64 { return o.delivered }), sumOf(ops, func(o *opStats) int64 { return o.events })))
	lm.put("proj.bytes_skipped_ratio", "ratio", ratio(sumOf(ops, func(o *opStats) int64 { return o.bytesSkipped }), bytesTotal))
	lm.put("mqe.dispatch_self_ms", "ms", diff(dispatch, projFast))
	lm.put("mqe.trie_dispatch_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.trie }, projFast))
	lm.put("mqe.trie_deliveries_per_event", "ratio", ratio(sumOf(ops, func(o *opStats) int64 { return o.trieDeliveries }), sumOf(ops, func(o *opStats) int64 { return o.trieEvents })))
	lm.put("mqe.pipelined_pass_ms", "ms", medianOf(ops, func(o *opStats) float64 { return ms(o.pipelined) }))
	lm.put("mqe.register_us_per_plan", "us", medianOf(ops, func(o *opStats) float64 { return float64(o.register) / float64(time.Microsecond) / float64(o.plans) }))
	lm.put("mqe.warm_pass_ms", "ms", medianOf(ops, func(o *opStats) float64 { return ms(o.set) }))
	lm.put("mqe.cold_pass_ms", "ms", medianOf(ops, func(o *opStats) float64 { return ms(o.cold) }))
	lm.put("mqe.cold_overhead_ms", "ms", diff(func(o *opStats) time.Duration { return o.cold }, func(o *opStats) time.Duration { return o.set }))
	lm.put("runtime.eval_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.runs }, func(o *opStats) time.Duration { return o.reads }))
	lm.put("runtime.shared_eval_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.set }, dispatch))
	lm.put("runtime.handler_firings", "count", medianOf(ops, func(o *opStats) float64 { return float64(o.firings) }))
	lm.put("runtime.allocs_per_pass", "count", medianOf(ops, func(o *opStats) float64 { return float64(o.mallocs) }))
	lm.put("runtime.alloc_bytes_per_input_byte", "ratio", ratio(sumOf(ops, func(o *opStats) int64 { return o.allocBytes }), bytesTotal))
	lm.put("bufmgr.budget_self_ms", "ms", diff(func(o *opStats) time.Duration { return o.budgeted }, func(o *opStats) time.Duration { return o.unbudgeted }))
	spilled := sumOf(ops, func(o *opStats) int64 { return o.spilled })
	lm.put("bufmgr.spilled_bytes", "B", medianOf(ops, func(o *opStats) float64 { return float64(o.spilled) }))
	lm.put("bufmgr.rehydrated_bytes", "B", medianOf(ops, func(o *opStats) float64 { return float64(o.rehydrated) }))
	lm.put("bufmgr.rehydrate_ratio", "ratio", ratio(sumOf(ops, func(o *opStats) int64 { return o.rehydrated }), spilled))
	lm.put("bufmgr.stall_ms", "ms", medianOf(ops, func(o *opStats) float64 { return ms(o.stall) }))
	lm.put("bufmgr.peak_heap_buffer_bytes", "B", float64(peakHeapMax(ops)))
	lm.put("bufmgr.spill_retries", "count", float64(l.bufs.Metrics().SpillRetries))
	setMed := medianOf(ops, func(o *opStats) float64 { return ms(o.set) })
	lm.put("flightrec.overhead_pct", "%", 100*(medianOf(ops, func(o *opStats) float64 { return ms(o.setFR) })-setMed)/setMed)
	printPerQuery(ops)

	// fluxserve over HTTP.
	if err := l.serveLayer(ctx, cfg, lm, share(0.7)); err != nil {
		return nil, err
	}
	// The harness: span overhead on the e2e op, and generator lag.
	if err := l.harnessLayer(ctx, cfg, lm, share(0.85), share(1)); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", in.Workload, in.Seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s trace: %d ops, %d spans in %s, attempted=%d failed=%d\n", in.Workload, len(ops), len(rec.spans), path, l.attempted, l.failed)
	return &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: lm}, nil
}

func peakHeapMax(ops []*opStats) int64 {
	var m int64
	for _, o := range ops {
		m = max(m, o.peakHeap)
	}
	return m
}

// printPerQuery writes each query's evaluator self time (Plan.Run minus
// its own projected read, median per op) to standard error.
func printPerQuery(ops []*opStats) {
	names := sortedKeys(ops[0].perQuery)
	if len(names) > 16 {
		return
	}
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.3fms", n, medianOf(ops, func(o *opStats) float64 { return ms(o.perQuery[n]) })))
	}
	fmt.Fprintf(os.Stderr, "perfbench: runtime.eval_self_ms per query: %s\n", strings.Join(parts, " "))
}

// serveLayer starts fluxserve over each schema of the workload,
// registers its queries and posts its documents until until.
func (l *ladder) serveLayer(ctx context.Context, cfg config, lm layerMetrics, until time.Time) error {
	servers := map[string]*fluxserve{}
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	c := newConn()
	defer c.CloseIdleConnections()
	for _, k := range sortedKeys(l.in.DTDs) {
		path := filepath.Join(cfg.workdir, "trace-"+k+".dtd")
		if err := os.WriteFile(path, []byte(l.in.DTDs[k]), 0o644); err != nil {
			return err
		}
		s, err := startServer(ctx, cfg.fluxserve, path)
		if err != nil {
			return err
		}
		servers[k] = s
		var qs []querySpec
		for _, q := range l.in.Queries {
			if q.DTD == k {
				qs = append(qs, q)
			}
		}
		if err := registerAll(c, s.base, qs); err != nil {
			return err
		}
	}
	chk := newEvalChecker(l.orc, l.in.Queries, nil)
	var healthz, pass, overhead, respBytes []float64
	var evals []int
	var rejected int
	units := l.in.units()
	for op := 0; op < 1 || time.Now().Before(until); op++ {
		for _, u := range units[op%len(units)] {
			q0 := l.in.Queries[u.plans[0]]
			s := servers[q0.DTD]
			id := l.rec.begin("fluxserve.healthz", 0, -op-1)
			_, err := do(c, http.MethodGet, s.base+"/healthz", nil)
			healthz = append(healthz, ms(l.rec.end(id)))
			if err != nil {
				return err
			}
			url := s.base + "/eval"
			if len(u.plans) == 1 {
				url += "?q=" + q0.Name
			}
			id = l.rec.begin("fluxserve.eval", 0, -op-1)
			body, err := do(c, http.MethodPost, url, l.in.Docs[u.doc].Data)
			l.rec.end(id)
			t1 := time.Now()
			l.attempted++
			if err != nil {
				var se *statusError
				if errors.As(err, &se) && se.code == http.StatusServiceUnavailable {
					rejected++
				}
				l.failed++
				fmt.Fprintf(os.Stderr, "perfbench: trace: /eval: %v\n", err)
				continue
			}
			d, _, err := chk.check(u.doc, body, len(u.plans))
			if err != nil {
				l.failed++
				fmt.Fprintf(os.Stderr, "perfbench: trace: /eval: %v\n", err)
				continue
			}
			// The server's pass, placed at the end of the request: its
			// exact position inside the request is unknown, its length
			// is not.
			l.rec.add("fluxserve.pass", id, -op-1, t1.Add(-d), t1)
			evals = append(evals, id)
			pass = append(pass, ms(d))
			respBytes = append(respBytes, float64(len(body)))
		}
	}
	// HTTP overhead is each request's self time: its span minus the pass.
	self := selfTimes(l.rec.spans)
	for _, id := range evals {
		overhead = append(overhead, ms(self[id]))
	}
	lm.put("fluxserve.healthz_p50_ms", "ms", median(sortedCopy(healthz)))
	lm.put("fluxserve.pass_p50_ms", "ms", median(sortedCopy(pass)))
	lm.put("fluxserve.http_overhead_ms", "ms", median(sortedCopy(overhead)))
	lm.put("fluxserve.response_bytes", "B", median(sortedCopy(respBytes)))
	lm.put("fluxserve.rejected", "count", float64(rejected))
	return nil
}

// harnessLayer measures the benchmark itself: the cost of recording a
// span around each end-to-end op (alternating traced and untraced
// ops), and the open-loop generator's lag.
func (l *ladder) harnessLayer(ctx context.Context, cfg config, lm layerMetrics, lagFrom, until time.Time) error {
	g, err := l.group(l.in.units()[0][0])
	if err != nil {
		return err
	}
	doc := l.in.Docs[l.in.units()[0][0].doc].Data
	op := func(rec *recorder) error {
		_, err := rec.time("bench.op", 0, 0, func() error { return g.set.Run(bytes.NewReader(doc)) })
		return err
	}
	var on, off []float64
	for i := 0; i < 3 || time.Now().Before(lagFrom); i++ {
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			var rec *recorder
			if traced {
				rec = newRecorder()
			}
			t0 := time.Now()
			if err := op(rec); err != nil {
				return err
			}
			if traced {
				on = append(on, ms(time.Since(t0)))
			} else {
				off = append(off, ms(time.Since(t0)))
			}
		}
	}
	offMed := median(sortedCopy(off))
	lm.put("bench.trace_overhead_pct", "%", 100*(median(sortedCopy(on))-offMed)/offMed)

	// Generator lag: the open loop at the nominal rate with an op that
	// returns at once, so any lag is the generator's own.
	d := time.Until(until)
	if d < time.Second {
		d = time.Second
	}
	sched := evalSchedule(newSeeded(l.in.Seed, "lag"), serveNominal*10, d, 1)
	due := make([]time.Duration, len(sched))
	for i, a := range sched {
		due[i] = a.Due
	}
	lags := make([]float64, 0, len(due))
	for _, s := range openLoop(ctx, due, 1, func(int) error { return nil }) {
		lags = append(lags, ms(s.lag()))
	}
	t, err := tail(sortedCopy(lags), 99)
	if err != nil {
		return err
	}
	lm.put("bench.gen_lag_p99_ms", "ms", t.Value)
	return nil
}
