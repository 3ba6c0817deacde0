package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"fluxquery"
)

// The two closed-loop workloads: one caller issues the next op as soon
// as the previous one returns, so an op is due when it is issued.

// parseDTDs parses the workload's schemas. Plans compiled against one
// parsed DTD share it with the StreamSet they join, as fluxserve's do.
func parseDTDs(in *inputs) (map[string]*fluxquery.DTD, error) {
	dtds := map[string]*fluxquery.DTD{}
	for k, src := range in.DTDs {
		d, err := fluxquery.ParseDTD(src)
		if err != nil {
			return nil, fmt.Errorf("dtd %s: %w", k, err)
		}
		dtds[k] = d
	}
	return dtds, nil
}

// compileAll compiles the workload's queries with o, registering each
// with reg when it is set. It returns the plans and the mean compile
// (and register) time per query in ms: the mean, because the queries'
// compile times differ and a median over single queries would jump
// between them.
func compileAll(in *inputs, dtds map[string]*fluxquery.DTD, o fluxquery.Options, reg func(i int, p *fluxquery.Plan) error) ([]*fluxquery.Plan, float64, error) {
	plans := make([]*fluxquery.Plan, len(in.Queries))
	t0 := time.Now()
	for i, q := range in.Queries {
		pq, err := fluxquery.ParseQuery(q.Src)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", q.Name, err)
		}
		if plans[i], err = fluxquery.Compile(pq, dtds[q.DTD], o); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", q.Name, err)
		}
		if reg != nil {
			if err := reg(i, plans[i]); err != nil {
				return nil, 0, fmt.Errorf("registering %s: %w", q.Name, err)
			}
		}
	}
	return plans, ms(time.Since(t0)) / float64(len(plans)), nil
}

// setupTimes is what one set-up measured: its whole time in seconds and
// the mean compile (and register) time per query in ms.
type setupTimes struct {
	total    float64
	register float64
}

// settle drops set-up garbage so the measured phase's RSS starts from
// the live heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// xmarkSet is the set-up of xmark-stream: one StreamSet holding every
// query, each writing into its own buffer.
type xmarkSet struct {
	set  *fluxquery.StreamSet
	regs []*fluxquery.StreamQuery
	outs []*bytes.Buffer
}

func setupXmark(in *inputs) (*xmarkSet, setupTimes, error) {
	t0 := time.Now()
	dtds, err := parseDTDs(in)
	if err != nil {
		return nil, setupTimes{}, err
	}
	x := &xmarkSet{set: fluxquery.NewStreamSet(dtds[dtdAuction])}
	_, reg, err := compileAll(in, dtds, fluxquery.Options{}, func(i int, p *fluxquery.Plan) error {
		out := &bytes.Buffer{}
		r, err := x.set.RegisterNamed(p, out, in.Queries[i].Name)
		x.regs = append(x.regs, r)
		x.outs = append(x.outs, out)
		return err
	})
	if err != nil {
		return nil, setupTimes{}, err
	}
	return x, setupTimes{time.Since(t0).Seconds(), reg}, nil
}

// pass runs one shared pass and checks every output.
func (x *xmarkSet) pass(in *inputs, orc *oracle, m *measured) (time.Duration, error) {
	for _, o := range x.outs {
		o.Reset()
	}
	t0 := time.Now()
	err := x.set.Run(bytes.NewReader(in.Docs[0].Data))
	dt := time.Since(t0)
	if err != nil {
		return dt, err
	}
	for i, r := range x.regs {
		st, err := r.Stats()
		if err != nil {
			return dt, fmt.Errorf("%s: %w", in.Queries[i].Name, err)
		}
		m.peaks.add(st.PeakBufferBytes)
		if !orc.ok(in.Queries[i].Src, 0, x.outs[i].Bytes()) {
			return dt, fmt.Errorf("%s: output differs from the reference", in.Queries[i].Name)
		}
	}
	return dt, nil
}

func runXmark(in *inputs, orc *oracle, budget time.Duration) (*measured, error) {
	m := &measured{workload: in.Workload}
	x, _, err := setupXmark(in)
	if err != nil {
		return nil, err
	}
	err = closedLoop(m, budget, func() (setupTimes, error) {
		_, st, err := setupXmark(in)
		return st, err
	}, func(int) (time.Duration, int64, error) {
		dt, err := x.pass(in, orc, m)
		return dt, in.docBytes(), err
	})
	return m, err
}

// closedLoop runs op(0), op(1), ... back to back for the budget,
// sampling this process's RSS. The loop goes in rounds of refRound: a
// host reference block opens every round and closes the last, and each
// sample is stamped with the mean of the two blocks around its round.
// A round starts with setupsPerRound runs of setup, each after a GC so
// that every set-up starts from the same heap: spread over the run, the
// set-ups see the same host as the ops. An op returns its engine time
// and the input bytes it consumed.
func closedLoop(m *measured, budget time.Duration, setup func() (setupTimes, error), op func(i int) (time.Duration, int64, error)) error {
	href := newHostRef()
	settle()
	rss := startRSS(os.Getpid())
	steal := stealSeconds()
	before := href.block()
	m.refBlocks = append(m.refBlocks, before)
	for end := time.Now().Add(budget); time.Now().Before(end); {
		reg0, pass0 := len(m.register), len(m.pass)
		for k := 0; k < setupsPerRound; k++ {
			runtime.GC()
			st, err := setup()
			if err != nil {
				rss.finish()
				return err
			}
			m.setup = append(m.setup, st.total)
			m.register = append(m.register, timing{ms: st.register})
		}
		for roundEnd := time.Now().Add(refRound); time.Now().Before(roundEnd) && time.Now().Before(end); {
			dt, opBytes, err := op(m.attempted)
			m.attempted++
			if err != nil {
				m.fail("%v", err)
				continue
			}
			m.pass = append(m.pass, timing{ms: ms(dt)})
			m.inBytes += opBytes
		}
		after := href.block()
		m.refBlocks = append(m.refBlocks, after)
		stamp(m.register[reg0:], before, after)
		stamp(m.pass[pass0:], before, after)
		before = after
	}
	m.steal = stealSeconds() - steal
	var err error
	if m.rssMB, err = rss.finish(); err != nil {
		m.fail("%v", err)
	}
	m.eval, m.service = m.pass, m.pass
	var raw, refs float64
	for _, t := range m.pass {
		raw += t.ms
		refs += t.refs()
	}
	if len(m.pass) > 0 {
		m.sustained = float64(len(m.pass)) / (raw / 1000)
		m.sustainedRef = raw / refs
	}
	return nil
}

// spillPlans is the set-up of buffered-spill: the shared spill-policy
// manager and the plans drawing on it.
type spillPlans struct {
	bufs  *fluxquery.BufferManager
	plans []*fluxquery.Plan
}

func setupSpill(cfg config, in *inputs) (*spillPlans, setupTimes, error) {
	t0 := time.Now()
	dir := filepath.Join(cfg.workdir, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, setupTimes{}, err
	}
	dtds, err := parseDTDs(in)
	if err != nil {
		return nil, setupTimes{}, err
	}
	s := &spillPlans{bufs: fluxquery.NewBufferManager(spillBudget, fluxquery.BufferSpill, dir)}
	var reg float64
	if s.plans, reg, err = compileAll(in, dtds, fluxquery.Options{Buffers: s.bufs}, nil); err != nil {
		s.bufs.Close()
		return nil, setupTimes{}, err
	}
	return s, setupTimes{time.Since(t0).Seconds(), reg}, nil
}

// op executes every plan over its document of every variant in turn
// and checks each output: one op covers all the documents, so the op
// times of a run come from one distribution, not one per variant.
func (s *spillPlans) op(in *inputs, orc *oracle, m *measured, out *bytes.Buffer) (time.Duration, int64, error) {
	var total time.Duration
	var n int64
	for v := 0; v < spillVariants; v++ {
		for i, p := range s.plans {
			doc := v*len(s.plans) + i
			out.Reset()
			t0 := time.Now()
			st, err := p.Execute(bytes.NewReader(in.Docs[doc].Data), out)
			total += time.Since(t0)
			n += int64(len(in.Docs[doc].Data))
			if err != nil {
				return total, n, fmt.Errorf("%s: %w", in.Queries[i].Name, err)
			}
			m.peaks.add(st.PeakBufferBytes)
			if !orc.ok(in.Queries[i].Src, doc, out.Bytes()) {
				return total, n, fmt.Errorf("%s on document %d: output differs from the reference", in.Queries[i].Name, doc)
			}
		}
	}
	return total, n, nil
}

func runSpill(cfg config, in *inputs, orc *oracle, budget time.Duration) (*measured, error) {
	m := &measured{workload: in.Workload}
	s, _, err := setupSpill(cfg, in)
	if err != nil {
		return nil, err
	}
	defer s.bufs.Close()
	var out bytes.Buffer
	err = closedLoop(m, budget, func() (setupTimes, error) {
		s, st, err := setupSpill(cfg, in)
		if err == nil {
			s.bufs.Close()
		}
		return st, err
	}, func(int) (time.Duration, int64, error) { return s.op(in, orc, m, &out) })
	return m, err
}
