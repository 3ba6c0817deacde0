package main

// The -fault mode drives the engine's fault-injection harness
// (internal/faultinj) from the command line: it arms a fault spec —
// or sweeps every site × mode — runs a workload known to reach each
// armed site, and reports whether the injection was actually hit and
// whether the pass degraded the way the failure model promises
// (error and short-write faults surface as a clean pass error,
// latency faults merely slow the pass down, and a follow-up clean
// run succeeds — the process stays reusable).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"time"

	"fluxquery"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/workload"
)

// faultWorkload names the workload that reaches a fault site.
func faultWorkload(site string) string {
	switch site {
	case faultinj.SiteSpillWrite, faultinj.SiteSpillRead:
		return "spill"
	case faultinj.SiteRingToken, faultinj.SiteRingEvent:
		return "ring"
	case faultinj.SiteBodyRead:
		return "body"
	}
	return ""
}

// faultHarness pre-builds the three site-covering workloads so a sweep
// does not recompile plans per cell.
type faultHarness struct {
	// spill: a buffering query under BufferSpill with a budget at half
	// its natural peak, so every run writes and rehydrates segments.
	spillPlan *fluxquery.Plan
	spillDoc  []byte
	// ring: a staged shared pass (tokenize/validate stages on their own
	// goroutines, run at GOMAXPROCS >= 2), so both ring hand-offs run.
	ringSet *fluxquery.StreamSet
	ringDoc []byte
	// body: a plain pass whose input rides a faultinj.Reader at the
	// body.read site, standing in for the fluxserve request body.
	bodyPlan *fluxquery.Plan
	bodyDoc  []byte
}

func newFaultHarness(r *runner) (*faultHarness, error) {
	h := &faultHarness{}
	// 64 KB keeps the spill cells quick: a latency fault fires once per
	// spill op, and sleep granularity makes thousands of ops add up.
	c := workload.ByName("xmp-q3-weak")
	doc, err := r.gen(c, 64<<10)
	if err != nil {
		return nil, err
	}
	ref := fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{})
	_, st, err := ref.ExecuteString(string(doc))
	if err != nil {
		return nil, err
	}
	h.spillPlan = fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{
		BufferBudget: st.PeakBufferBytes / 2,
		BufferPolicy: fluxquery.BufferSpill,
	})
	h.spillDoc = doc
	h.bodyPlan = ref
	h.bodyDoc = doc

	d, err := fluxquery.ParseDTD(mqDTD())
	if err != nil {
		return nil, err
	}
	set := fluxquery.NewStreamSet(d)
	for g := 0; g < 4; g++ {
		p := fluxquery.MustCompile(mqQuery(g), mqDTD(), fluxquery.Options{})
		if _, err := set.Register(p, io.Discard); err != nil {
			return nil, err
		}
	}
	h.ringSet = set
	h.ringDoc = mqDoc()
	return h, nil
}

// run executes the named workload once and returns the pass error.
func (h *faultHarness) run(name string) error {
	switch name {
	case "spill":
		_, err := h.spillPlan.Execute(bytes.NewReader(h.spillDoc), io.Discard)
		return err
	case "ring":
		// The rings exist only in the staged pass, which needs a width
		// of at least 2.
		if goruntime.GOMAXPROCS(0) < 2 {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
		}
		return h.ringSet.Run(bytes.NewReader(h.ringDoc))
	case "body":
		_, err := h.bodyPlan.Execute(
			&faultinj.Reader{Site: faultinj.SiteBodyRead, R: bytes.NewReader(h.bodyDoc)},
			io.Discard)
		return err
	}
	return fmt.Errorf("unknown fault workload %q", name)
}

// runFault is the -fault entry point. spec "sweep" runs every site ×
// mode; any other spec is an ArmSpec string armed for one run of the
// covering workloads. Returns non-zero when a cell violates the
// failure model: a site never reached, an error fault that did not
// fail the pass, a latency fault that did, or a clean follow-up run
// that failed (process not reusable).
func runFault(r *runner, spec string) int {
	h, err := newFaultHarness(r)
	if err != nil {
		fmt.Fprintf(r.w, "fluxbench: -fault: %v\n", err)
		return 1
	}
	defer h.spillPlan.Close()
	defer faultinj.Reset()
	if spec != "sweep" {
		return runFaultSpec(r, h, spec)
	}

	fmt.Fprintf(r.w, "== fault injection sweep: every site x mode ==\n")
	fmt.Fprintf(r.w, "%-12s %-11s %-6s %6s %9s %12s  %s\n",
		"site", "mode", "wkld", "hits", "injected", "time", "outcome")
	bad := 0
	for _, sn := range faultinj.Sites() {
		wl := faultWorkload(sn)
		for _, mode := range faultinj.Modes() {
			faultinj.Reset()
			f := faultinj.Fault{Mode: mode}
			if mode == faultinj.ModeLatency {
				f.Latency = 200 * time.Microsecond
			}
			if err := faultinj.Arm(sn, f); err != nil {
				fmt.Fprintf(r.w, "fluxbench: -fault: %v\n", err)
				return 1
			}
			start := time.Now()
			passErr := h.run(wl)
			el := time.Since(start).Round(time.Microsecond)
			hits, inj := faultinj.Hits(sn), faultinj.Injected(sn)
			faultinj.Reset()
			cleanErr := h.run(wl)
			outcome := faultOutcome(mode, inj, passErr, cleanErr)
			if outcome != "ok" {
				bad++
			}
			fmt.Fprintf(r.w, "%-12s %-11s %-6s %6d %9d %12s  %s\n",
				sn, mode, wl, hits, inj, el, outcome)
		}
	}
	if bad > 0 {
		fmt.Fprintf(r.w, "\n%d cell(s) violated the failure model\n", bad)
		return 1
	}
	return 0
}

// faultOutcome classifies one sweep cell against the failure model.
func faultOutcome(mode faultinj.Mode, injected int64, passErr, cleanErr error) string {
	switch {
	case injected == 0:
		return "SITE NOT REACHED"
	case cleanErr != nil:
		return fmt.Sprintf("NOT REUSABLE: clean rerun failed: %v", cleanErr)
	case mode == faultinj.ModeLatency && passErr != nil:
		return fmt.Sprintf("LATENCY FAILED PASS: %v", passErr)
	case mode != faultinj.ModeLatency && passErr == nil:
		return "FAULT SWALLOWED: pass succeeded"
	case mode != faultinj.ModeLatency && !errors.Is(passErr, faultinj.ErrInjected):
		return fmt.Sprintf("WRONG ERROR: %v", passErr)
	}
	return "ok"
}

// runFaultSpec arms one user spec and runs the covering workloads.
func runFaultSpec(r *runner, h *faultHarness, spec string) int {
	if err := faultinj.ArmSpec(spec); err != nil {
		fmt.Fprintf(r.w, "fluxbench: -fault: %v\n", err)
		return 1
	}
	// Run each workload covering at least one armed site (armed =
	// injected-or-injectable; detect via the spec's site names).
	need := map[string]bool{}
	for _, sn := range faultinj.Sites() {
		if faultinj.Injected(sn) > 0 || specNames(spec, sn) {
			need[faultWorkload(sn)] = true
		}
	}
	fmt.Fprintf(r.w, "== fault run: %s ==\n", spec)
	for _, wl := range []string{"spill", "ring", "body"} {
		if !need[wl] {
			continue
		}
		start := time.Now()
		err := h.run(wl)
		el := time.Since(start).Round(time.Microsecond)
		fmt.Fprintf(r.w, "%-6s %12s  err=%v\n", wl, el, err)
	}
	fmt.Fprintf(r.w, "%-12s %6s %9s\n", "site", "hits", "injected")
	for _, sn := range faultinj.Sites() {
		if faultinj.Hits(sn) == 0 && faultinj.Injected(sn) == 0 {
			continue
		}
		fmt.Fprintf(r.w, "%-12s %6d %9d\n", sn, faultinj.Hits(sn), faultinj.Injected(sn))
	}
	return 0
}

// specNames reports whether the spec string names the site.
func specNames(spec, site string) bool {
	for _, item := range splitSpec(spec) {
		if item == site {
			return true
		}
	}
	return false
}

func splitSpec(spec string) []string {
	var out []string
	for _, item := range bytes.Split([]byte(spec), []byte(",")) {
		name, _, _ := bytes.Cut(bytes.TrimSpace(item), []byte(":"))
		out = append(out, string(name))
	}
	return out
}
