package fluxquery

// Differential tests of the pass width. The width follows GOMAXPROCS:
// at 2 or more the tokenizer, validator and dispatcher run on separate
// goroutines connected by bounded batch rings and the plan set is
// sharded across feed workers; at 1 the pass fills its batches inline.
// The tests set GOMAXPROCS in-process (1, 2, 4), and the output must be
// byte-identical in every form on every corpus query, with error
// semantics (validity errors, tag imbalance, projection trade-offs)
// preserved event-for-event. Run them with -race.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fluxquery/internal/mqe"
	"fluxquery/internal/workload"
)

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// widths are the GOMAXPROCS values the differential tests sweep: the
// inline form and two staged widths.
var widths = []int{1, 2, 4}

// TestParallelDifferentialCorpus: for every workload case and projection
// mode, the staged pass is byte-identical to the inline one, with
// identical buffer accounting and scan counters.
func TestParallelDifferentialCorpus(t *testing.T) {
	for _, c := range workload.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var doc bytes.Buffer
			if err := c.Gen(&doc, 20_000, 1); err != nil {
				t.Fatal(err)
			}
			for _, m := range projModes {
				p := MustCompile(c.Query, c.DTD, Options{Projection: m})
				withProcs(t, 1)
				want, wantSt, err := p.ExecuteString(doc.String())
				if err != nil {
					t.Fatalf("proj=%v inline: %v", m, err)
				}
				for _, n := range widths[1:] {
					runtime.GOMAXPROCS(n)
					got, gotSt, err := p.ExecuteString(doc.String())
					if err != nil {
						t.Fatalf("proj=%v procs=%d: %v", m, n, err)
					}
					if got != want {
						t.Fatalf("proj=%v procs=%d: staged output differs from inline\nstaged: %.200s\ninline: %.200s",
							m, n, got, want)
					}
					if gotSt.PeakBufferBytes != wantSt.PeakBufferBytes ||
						gotSt.HandlerFirings != wantSt.HandlerFirings ||
						gotSt.Events != wantSt.Events {
						t.Errorf("proj=%v procs=%d: accounting diverged: %+v vs %+v", m, n, gotSt, wantSt)
					}
					if gotSt.ScanEventsDelivered != wantSt.ScanEventsDelivered ||
						gotSt.ScanEventsSkipped != wantSt.ScanEventsSkipped ||
						gotSt.ScanSubtreesSkipped != wantSt.ScanSubtreesSkipped ||
						gotSt.ScanBytesSkipped != wantSt.ScanBytesSkipped {
						t.Errorf("proj=%v procs=%d: scan counters diverged: %+v vs %+v", m, n, gotSt, wantSt)
					}
				}
			}
		})
	}
}

// TestParallelStreamSetDifferential: all 8 XMark streaming queries ride
// one shared pass; every plan's output must be byte-identical at every
// width, and the pass must report its form and worker count.
func TestParallelStreamSetDifferential(t *testing.T) {
	var xmark []*workload.Case
	for i := range workload.Cases {
		if strings.HasPrefix(workload.Cases[i].Name, "xmark-") {
			xmark = append(xmark, &workload.Cases[i])
		}
	}
	if len(xmark) != 8 {
		t.Fatalf("expected 8 xmark queries, got %d", len(xmark))
	}
	var doc bytes.Buffer
	if err := xmark[0].Gen(&doc, 150_000, 11); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(xmark[0].DTD)
	if err != nil {
		t.Fatal(err)
	}

	run := func(procs int, m Projection) []string {
		withProcs(t, procs)
		set := NewStreamSet(d)
		set.SetProjection(m)
		outs := make([]*bytes.Buffer, len(xmark))
		for i, c := range xmark {
			outs[i] = &bytes.Buffer{}
			if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), outs[i]); err != nil {
				t.Fatal(err)
			}
		}
		pr, err := set.RunPass(nil, bytes.NewReader(doc.Bytes()), PassOptions{})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		res := make([]string, len(outs))
		for i, o := range outs {
			res[i] = o.String()
		}
		ps := pr.Record
		if ps.Staged != (procs >= 2) || ps.Parallel != procs || ps.Batches == 0 {
			t.Errorf("procs=%d: pass metrics %+v", procs, ps)
		}
		return res
	}

	for _, m := range projModes {
		want := run(1, m)
		for _, n := range widths[1:] {
			got := run(n, m)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("proj=%v procs=%d: %s diverges from the inline shared pass",
						m, n, xmark[i].Name)
				}
			}
		}
	}
}

// TestParallelErrorSemantics mirrors the projection error-trade-off
// tests at every width: a validity error buried inside a pruned subtree
// is caught by validate/off and traded away by fast, while tag
// imbalance is caught by every mode.
func TestParallelErrorSemantics(t *testing.T) {
	const dtdSrc = `<!ELEMENT bib (book)*>
<!ELEMENT book (title,extra)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT extra (note)*>
<!ELEMENT note (#PCDATA)>`
	const query = `<t>{ for $b in $ROOT/bib/book return { $b/title } }</t>`
	const invalid = `<bib><book><title>T</title><extra><wrong/></extra></book></bib>`
	const unbalanced = `<bib><book><title>T</title><extra><note></extra></book></bib>`

	for _, n := range widths {
		withProcs(t, n)
		for _, m := range projModes {
			p := MustCompile(query, dtdSrc, Options{Projection: m})
			_, _, err := p.ExecuteString(invalid)
			if m == ProjectionFast {
				if err != nil {
					t.Errorf("procs=%d fast: expected the invalid-but-balanced interior to be traded away, got %v", n, err)
				}
			} else if err == nil {
				t.Errorf("procs=%d proj=%v: undeclared element inside skipped region not reported", n, m)
			}
			if _, _, err := p.ExecuteString(unbalanced); err == nil {
				t.Errorf("procs=%d proj=%v: tag imbalance inside skipped region not reported", n, m)
			}
		}
	}

	// Error strings must match across forms exactly (same line, same
	// message): run a buried validity error through each width.
	p := MustCompile(query, dtdSrc, Options{Projection: ProjectionValidate})
	withProcs(t, 1)
	_, _, want := p.ExecuteString(invalid)
	for _, n := range widths[1:] {
		runtime.GOMAXPROCS(n)
		_, _, got := p.ExecuteString(invalid)
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Errorf("error mismatch:\ninline:        %v\nstaged (p=%d): %v", want, n, got)
		}
	}
}

// TestParallelRegisterChurn: Register/Unregister run concurrently with
// staged shared passes; unregistered plans detach with
// ErrUnregistered, the stream and the other plans are undisturbed, and
// (under -race) no counter or batch is shared unsynchronized.
func TestParallelRegisterChurn(t *testing.T) {
	stable := workload.ByName("xmark-q1")
	churnA := workload.ByName("xmark-q13")
	churnB := workload.ByName("xmark-q2-bidders")
	var doc bytes.Buffer
	if err := stable.Gen(&doc, 60_000, 3); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(stable.DTD)
	if err != nil {
		t.Fatal(err)
	}
	solo := MustCompile(stable.Query, stable.DTD, Options{})
	want, _, err := solo.ExecuteString(doc.String())
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range widths {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			withProcs(t, n)
			set := NewStreamSet(d)
			var out bytes.Buffer
			if _, err := set.Register(MustCompile(stable.Query, stable.DTD, Options{}), &out); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				pa := MustCompile(churnA.Query, churnA.DTD, Options{})
				pb := MustCompile(churnB.Query, churnB.DTD, Options{})
				var sink bytes.Buffer
				for {
					select {
					case <-stop:
						return
					default:
					}
					qa, err := set.Register(pa, &sink)
					if err != nil {
						t.Error(err)
						return
					}
					qb, err := set.Register(pb, &sink)
					if err != nil {
						t.Error(err)
						return
					}
					qa.Unregister()
					qb.Unregister()
				}
			}()

			for pass := 0; pass < 20; pass++ {
				out.Reset()
				if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if out.String() != want {
					t.Fatalf("pass %d: stable plan's output diverged under churn", pass)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestParallelUnregisterMidStream: a plan unregistered while a staged
// pass is in flight detaches at a batch boundary and reports
// ErrUnregistered; the remaining plan completes byte-identically.
func TestParallelUnregisterMidStream(t *testing.T) {
	stable := workload.ByName("xmark-q1")
	victim := workload.ByName("xmark-q13")
	var doc bytes.Buffer
	if err := stable.Gen(&doc, 120_000, 5); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(stable.DTD)
	if err != nil {
		t.Fatal(err)
	}
	solo := MustCompile(stable.Query, stable.DTD, Options{})
	want, _, err := solo.ExecuteString(doc.String())
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range widths {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			withProcs(t, n)
			set := NewStreamSet(d)
			var out, sink bytes.Buffer
			if _, err := set.Register(MustCompile(stable.Query, stable.DTD, Options{}), &out); err != nil {
				t.Fatal(err)
			}
			vq, err := set.Register(MustCompile(victim.Query, victim.DTD, Options{}), &sink)
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				vq.Unregister()
			}()
			if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
				t.Fatal(err)
			}
			<-done
			if out.String() != want {
				t.Fatal("remaining plan's output diverged after mid-stream unregister")
			}
			if _, verr := vq.Stats(); verr != nil &&
				!errors.Is(verr, mqe.ErrUnregistered) && !errors.Is(verr, mqe.ErrNotRun) {
				// The unregister may also land before the pass starts (clean
				// detach, never run) — only a foreign error is a failure.
				t.Fatalf("unexpected victim result: %v", verr)
			}
		})
	}
}
