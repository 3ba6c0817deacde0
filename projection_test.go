package fluxquery

// Differential tests of schema-driven stream projection: on every corpus
// query (including all 8 XMark streaming queries) the projected pass must
// produce byte-identical output to the unprojected one — a too-narrow
// path-set is a correctness bug, so these are the subsystem's primary
// acceptance tests.

import (
	"bytes"
	"strings"
	"testing"

	"fluxquery/internal/workload"
)

// projModes are the three projection settings under test.
var projModes = []Projection{ProjectionOff, ProjectionValidate, ProjectionFast}

// TestProjectionDifferentialCorpus: for every workload case, execution
// with projection fast/validate is byte-identical to projection off, and
// the buffer accounting (the paper's memory metric) is unchanged.
func TestProjectionDifferentialCorpus(t *testing.T) {
	for _, c := range workload.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var doc bytes.Buffer
				if err := c.Gen(&doc, 20_000, seed); err != nil {
					t.Fatal(err)
				}
				var want string
				var wantSt Stats
				for _, m := range projModes {
					p := MustCompile(c.Query, c.DTD, Options{Projection: m})
					out, st, err := p.ExecuteString(doc.String())
					if err != nil {
						t.Fatalf("seed %d proj=%v: %v", seed, m, err)
					}
					if m == ProjectionOff {
						want, wantSt = out, st
						continue
					}
					if out != want {
						t.Fatalf("seed %d: proj=%v output differs from proj=off\nproj: %.200s\noff:  %.200s",
							seed, m, out, want)
					}
					if st.PeakBufferBytes != wantSt.PeakBufferBytes ||
						st.BufferedBytesTotal != wantSt.BufferedBytesTotal ||
						st.HandlerFirings != wantSt.HandlerFirings {
						t.Errorf("seed %d: proj=%v buffer accounting diverged: %+v vs %+v",
							seed, m, st, wantSt)
					}
					if st.Events > wantSt.Events {
						t.Errorf("seed %d: proj=%v delivered more events (%d) than off (%d)",
							seed, m, st.Events, wantSt.Events)
					}
				}
			}
		})
	}
}

// TestProjectionCoversAllXMarkQueries pins the acceptance workload: the
// catalogue must contain all 8 XMark streaming queries, so the corpus
// differential above really covers them.
func TestProjectionCoversAllXMarkQueries(t *testing.T) {
	var n int
	for _, c := range workload.Cases {
		if strings.HasPrefix(c.Name, "xmark-") {
			n++
		}
	}
	if n != 8 {
		t.Fatalf("workload catalogue has %d xmark queries, want 8", n)
	}
}

// TestProjectionSkipsSelectiveQuery: on a selective lookup over a broad
// document, fast projection must actually prune — subtrees skipped, raw
// bytes bulk-skipped — while still producing identical output (covered
// above). This guards against the automaton silently degenerating to
// keep-everything.
func TestProjectionSkipsSelectiveQuery(t *testing.T) {
	c := workload.ByName("xmark-q1")
	var doc bytes.Buffer
	if err := c.Gen(&doc, 200_000, 42); err != nil {
		t.Fatal(err)
	}
	p := MustCompile(c.Query, c.DTD, Options{Projection: ProjectionFast})
	_, st, err := p.ExecuteString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	if st.ScanSubtreesSkipped == 0 || st.ScanBytesSkipped == 0 {
		t.Fatalf("selective query pruned nothing: %+v", st)
	}
	if st.ScanBytesSkipped < int64(doc.Len())/2 {
		t.Errorf("selective query bulk-skipped only %d of %d bytes", st.ScanBytesSkipped, doc.Len())
	}
	if st.ScanEventsDelivered == 0 {
		t.Error("no events delivered at all")
	}
}

// TestProjectionStreamSetUnion: a StreamSet projects with the UNION of
// the registered path-sets — each plan's output must match its own solo
// run even when the union is far wider than the plan's own set, and the
// union must narrow again when a broad plan unregisters.
func TestProjectionStreamSetUnion(t *testing.T) {
	narrow := workload.ByName("xmark-q1")        // people only
	broad := workload.ByName("xmark-q13")        // items with description copy
	other := workload.ByName("xmark-q2-bidders") // open auctions
	var doc bytes.Buffer
	if err := narrow.Gen(&doc, 120_000, 7); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(narrow.DTD)
	if err != nil {
		t.Fatal(err)
	}

	solo := func(c *workload.Case) string {
		p := MustCompile(c.Query, c.DTD, Options{Projection: ProjectionOff})
		out, _, err := p.ExecuteString(doc.String())
		if err != nil {
			t.Fatalf("%s solo: %v", c.Name, err)
		}
		return out
	}

	for _, m := range projModes {
		set := NewStreamSet(d)
		set.SetProjection(m)
		cases := []*workload.Case{narrow, broad, other}
		outs := make([]*bytes.Buffer, len(cases))
		regs := make([]*StreamQuery, len(cases))
		for i, c := range cases {
			outs[i] = &bytes.Buffer{}
			regs[i], err = set.Register(MustCompile(c.Query, c.DTD, Options{}), outs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := set.RunPass(nil, bytes.NewReader(doc.Bytes()), PassOptions{})
		if err != nil {
			t.Fatalf("proj=%v: %v", m, err)
		}
		for i, c := range cases {
			if outs[i].String() != solo(c) {
				t.Errorf("proj=%v: %s diverges from solo run", m, c.Name)
			}
		}
		sc := res.Record
		if sc.InputBytes != int64(doc.Len()) {
			t.Errorf("proj=%v: pass read %d bytes, want the document's %d once", m, sc.InputBytes, doc.Len())
		}
		if m == ProjectionOff && (sc.EventsDelivered != 0 || sc.EventsSkipped != 0) {
			t.Errorf("proj=off recorded scan stats: %+v", sc)
		}
		if m != ProjectionOff && sc.EventsDelivered == 0 {
			t.Errorf("proj=%v: no deliveries recorded: %+v", m, sc)
		}

		// Unregistering the broad plans must narrow the union: the narrow
		// lookup alone prunes most of the document.
		regs[1].Unregister()
		regs[2].Unregister()
		outs[0].Reset()
		res, err = set.RunPass(nil, bytes.NewReader(doc.Bytes()), PassOptions{})
		if err != nil {
			t.Fatalf("proj=%v after unregister: %v", m, err)
		}
		if outs[0].String() != solo(narrow) {
			t.Errorf("proj=%v: narrowed union broke the remaining plan", m)
		}
		if m == ProjectionFast {
			// A narrower union prunes higher in the tree: fewer but far
			// larger skips, so raw bytes skipped must grow.
			if after := res.Record; after.BytesSkipped <= sc.BytesSkipped {
				t.Errorf("union did not narrow after unregister: %d -> %d bytes skipped",
					sc.BytesSkipped, after.BytesSkipped)
			}
		}
	}
}

// TestProjectionMalformedInsideSkippedRegion documents the fast/validate
// trade-off: a validity error buried inside a pruned subtree is caught by
// ProjectionValidate (and Off) and traded away by ProjectionFast, while a
// well-formedness error (tag imbalance) is caught by every mode.
func TestProjectionMalformedInsideSkippedRegion(t *testing.T) {
	const dtdSrc = `<!ELEMENT bib (book)*>
<!ELEMENT book (title,extra)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT extra (note)*>
<!ELEMENT note (#PCDATA)>`
	const query = `<t>{ for $b in $ROOT/bib/book return { $b/title } }</t>`
	// <wrong> is undeclared, hidden inside <extra>, which the query never
	// touches.
	const invalid = `<bib><book><title>T</title><extra><wrong/></extra></book></bib>`
	const unbalanced = `<bib><book><title>T</title><extra><note></extra></book></bib>`

	for _, m := range projModes {
		p := MustCompile(query, dtdSrc, Options{Projection: m})
		_, _, err := p.ExecuteString(invalid)
		if m == ProjectionFast {
			if err != nil {
				t.Errorf("fast: expected the invalid-but-balanced interior to be traded away, got %v", err)
			}
		} else if err == nil {
			t.Errorf("proj=%v: undeclared element inside skipped region not reported", m)
		}
		if _, _, err := p.ExecuteString(unbalanced); err == nil {
			t.Errorf("proj=%v: tag imbalance inside skipped region not reported", m)
		}
	}

	// An interior end tag naming the wrong element: the fast skip only
	// depth-counts interior tags and matches the outer end tag by name,
	// so it evaluates the document as if the tags matched; validate and
	// off tokenize the region and reject it.
	const mixedDTD = `<!ELEMENT bib (book)*>
<!ELEMENT book (title|publisher)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA|x|y)*>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>`
	const titles = `<results>{ for $b in $ROOT/bib/book return $b/title }</results>`
	const mismatched = `<bib><book><title>T</title><publisher><x></y></publisher></book></bib>`
	const matched = `<bib><book><title>T</title><publisher><x></x></publisher></book></bib>`
	for _, m := range projModes {
		p := MustCompile(titles, mixedDTD, Options{Projection: m})
		out, _, err := p.ExecuteString(mismatched)
		if m != ProjectionFast {
			if err == nil || !strings.Contains(err.Error(), "does not match") {
				t.Errorf("proj=%v: interior end-tag name mismatch not reported: %v", m, err)
			}
			continue
		}
		want, _, werr := p.ExecuteString(matched)
		if werr != nil {
			t.Fatal(werr)
		}
		if err != nil || out != want || !strings.Contains(out, "<title>T</title>") {
			t.Errorf("fast: interior name mismatch = %q, %v; want the matched document's %q", out, err, want)
		}
	}
}

// TestProjectionShellEndTagMismatch: the bulk skip verifies the outermost
// end tag of a pruned subtree, so a shell whose subtree closes with the
// wrong name fails in every mode.
func TestProjectionShellEndTagMismatch(t *testing.T) {
	const dtdSrc = `<!ELEMENT bib (book)*>
<!ELEMENT book (title,extra)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT extra (#PCDATA)>`
	const query = `<t>{ for $b in $ROOT/bib/book return { $b/title } }</t>`
	const doc = `<bib><book><title>T</title><extra>x</title></book></bib>`
	for _, m := range projModes {
		p := MustCompile(query, dtdSrc, Options{Projection: m})
		if _, _, err := p.ExecuteString(doc); err == nil {
			t.Errorf("proj=%v: mismatched end tag of pruned subtree not reported", m)
		}
	}
}
