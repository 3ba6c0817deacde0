package main

import (
	"fmt"
	"os"
	"strings"
)

// measured is what one end-to-end run collected. Every timing carries
// the host reference in force when it was taken (hostref.go).
type measured struct {
	workload string
	// setup holds one set-up time per repetition, in seconds.
	setup []float64
	// register holds registration latencies: per set-up, the mean
	// compile (plus register) time per query in process; per churn
	// PUT/DELETE over HTTP for the server.
	register []timing
	// pass holds the engine's time per op; eval the caller's latency
	// per op measured from when the op was due; service the time each
	// op kept the caller busy.
	pass, eval, service []timing
	// inBytes over the summed service time is the input rate.
	inBytes int64
	// sustained is the highest op rate the workload sustained (1/s),
	// measured while the ref was sustainedRef ms.
	sustained, sustainedRef float64
	// unregister holds the churn DELETE latencies (ms) of the server.
	unregister []float64
	// refBlocks are the host reference values of the run in ms: block
	// medians in a closed loop, single runs beside the server.
	refBlocks []float64
	peaks     peaks
	rssMB     float64
	// steal is the hypervisor steal time over the measured phase.
	steal     float64
	attempted int
	failed    int
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	if m.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", m.workload, fmt.Sprintf(format, args...))
	}
}

// result turns the samples into the end-to-end metrics: medians, rates
// and peaks, with every timing in refs. The raw timings in ms and the
// tails (pass p90, eval p99, register p95) go on the summary line only:
// on a host that steals CPU from this machine the tails move by a third
// or more between identical runs, so they cannot carry a regression
// bound. Every tail is the highest percentile at or below its name with
// at least minBeyond samples beyond it; the summary names the
// percentile used and the sample count.
func (m *measured) result() (*result, error) {
	if m.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", m.workload)
	}
	if m.inBytes == 0 {
		return nil, fmt.Errorf("%s: no input measured", m.workload)
	}
	for _, ts := range [][]timing{m.pass, m.eval, m.service, m.register} {
		if len(ts) == 0 {
			return nil, fmt.Errorf("%s: an op kind has no samples", m.workload)
		}
	}
	if m.peaks.n == 0 {
		return nil, fmt.Errorf("%s: no buffer peak reported", m.workload)
	}
	if m.sustained <= 0 || m.sustainedRef <= 0 {
		return nil, fmt.Errorf("%s: no sustained rate", m.workload)
	}
	var busyMs, busyRefs float64
	for _, t := range m.service {
		busyMs += t.ms
		busyRefs += t.refs()
	}
	mb := float64(m.inBytes) / 1e6
	notes := []string{fmt.Sprintf("attempted=%d failed=%d error_ratio=%g steal_s=%.2f ref_ms=%.4g",
		m.attempted, m.failed, float64(m.failed)/float64(m.attempted), m.steal, median(sortedCopy(m.refBlocks))),
		fmt.Sprintf("peak_buffer_max_bytes=%d", m.peaks.max),
		fmt.Sprintf("pass_p50_ms=%.4g eval_p50_ms=%.4g register_p50_ms=%.4g throughput_mb_s=%.4g sustained_rps=%.4g",
			median(rawMs(m.pass)), median(rawMs(m.eval)), median(rawMs(m.register)), mb/(busyMs/1000), m.sustained)}
	for _, t := range []struct {
		name string
		ts   []timing
		p    float64
	}{{"pass_p90_ms", m.pass, 90}, {"eval_p99_ms", m.eval, 99}, {"register_p95_ms", m.register, 95}} {
		tv, err := tail(rawMs(t.ts), t.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		notes = append(notes, fmt.Sprintf("%s=%.4g(p%.1f/n=%d)", t.name, tv.Value, tv.P, tv.N))
	}
	if len(m.unregister) > 0 {
		notes = append(notes, fmt.Sprintf("unregister_p50_ms=%.4g(n=%d)", median(sortedCopy(m.unregister)), len(m.unregister)))
	}
	fmt.Printf("perfbench %s: %s\n", m.workload, strings.Join(notes, " "))
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{
		"setup_s":               {median(sortedCopy(m.setup)), "s"},
		"throughput_mb_per_ref": {mb / busyRefs, "MB/ref"},
		"pass_p50_ref":          {median(inRefs(m.pass)), "ref"},
		"eval_p50_ref":          {median(inRefs(m.eval)), "ref"},
		"register_p50_ref":      {median(inRefs(m.register)), "ref"},
		"sustained_per_ref":     {m.sustained * m.sustainedRef / 1000, "1/ref"},
		"peak_buffer_bytes":     {m.peaks.mean(), "B"},
		"rss_peak_mb":           {m.rssMB, "MB"},
	}}, nil
}

// peaks summarises the BDF buffer peaks of plan runs: one peak per
// plan per document.
type peaks struct {
	max, sum, n int64
}

func (p *peaks) add(v int64) {
	p.max = max(p.max, v)
	p.sum += v
	p.n++
}

func (p *peaks) merge(o peaks) {
	p.max = max(p.max, o.max)
	p.sum += o.sum
	p.n += o.n
}

// mean is the mean peak per plan run. The maximum rests on the one
// document with the most buffered data and moved by a tenth between
// seeds on buffered-spill; the mean over every plan and document moves
// less.
func (p peaks) mean() float64 { return float64(p.sum) / float64(p.n) }
