package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"fluxquery"
)

// The multiquery suite measures what the dispatch trie is for: the
// marginal per-plan cost of one shared pass as the registration count
// grows from 100 to 10 000 while the distinct path population stays
// fixed. The workload registers N queries drawn round-robin from
// mqGroups distinct loop paths over a weak (star-content) catalog
// schema, so the trie interns mqGroups path families no matter how many
// registrations ride them and an event's delivery cost tracks the plans
// whose paths reach it — flat marginal cost is the acceptance shape
// (marginal ns/plan at 10k within 2x of 100). A fanout-mode record at
// the smallest count anchors the comparison against the
// deliver-everything-to-everyone baseline.

const (
	mqGroups        = 32
	mqItemsPerGroup = 140 // document lands near 256 KB
)

// mqDTD builds the catalog schema: db holds a free mix of mqGroups group
// elements, each group a star of its own item kind with two leaf fields.
// All content models are unordered stars, so every plan streams without
// buffering and the suite isolates dispatch cost.
func mqDTD() string {
	var sb strings.Builder
	sb.WriteString("<!ELEMENT db (")
	for g := 0; g < mqGroups; g++ {
		if g > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "g%d", g)
	}
	sb.WriteString(")*>\n")
	for g := 0; g < mqGroups; g++ {
		fmt.Fprintf(&sb, "<!ELEMENT g%d (item%d)*>\n", g, g)
		fmt.Fprintf(&sb, "<!ELEMENT item%d (name%d|val%d)*>\n", g, g, g)
		fmt.Fprintf(&sb, "<!ELEMENT name%d (#PCDATA)>\n", g)
		fmt.Fprintf(&sb, "<!ELEMENT val%d (#PCDATA)>\n", g)
	}
	return sb.String()
}

func mqDoc() []byte {
	var sb bytes.Buffer
	sb.WriteString("<db>")
	for g := 0; g < mqGroups; g++ {
		fmt.Fprintf(&sb, "<g%d>", g)
		for i := 0; i < mqItemsPerGroup; i++ {
			fmt.Fprintf(&sb, "<item%d><name%d>n%d-%d</name%d><val%d>%d</val%d></item%d>",
				g, g, g, i, g, g, i%97, g, g)
		}
		fmt.Fprintf(&sb, "</g%d>", g)
	}
	sb.WriteString("</db>")
	return sb.Bytes()
}

func mqQuery(g int) string {
	return fmt.Sprintf("<out>{ for $x in $ROOT/db/g%d/item%d return <r>{ $x/name%d }</r> }</out>",
		g, g, g)
}

// multiQueryRecords measures trie-dispatched shared passes at 100, 1 000
// and 10 000 registrations plus one fanout pass at 100 for comparison.
func multiQueryRecords(r *runner) ([]record, error) {
	dtdSrc := mqDTD()
	d, err := fluxquery.ParseDTD(dtdSrc)
	if err != nil {
		return nil, err
	}
	doc := mqDoc()
	plans := make([]*fluxquery.Plan, mqGroups)
	for g := range plans {
		plans[g] = fluxquery.MustCompile(mqQuery(g), dtdSrc, fluxquery.Options{})
	}

	measure := func(mode fluxquery.Dispatch, n int) (record, error) {
		set := fluxquery.NewStreamSet(d)
		set.SetDispatch(mode)
		regs := make([]*fluxquery.StreamQuery, n)
		for i := 0; i < n; i++ {
			reg, err := set.Register(plans[i%mqGroups], io.Discard)
			if err != nil {
				return record{}, err
			}
			regs[i] = reg
		}
		// One warm pass outside the measurement: the first Run after
		// registration churn rebuilds the projection union and the trie
		// snapshot, a cost amortized over every later pass of a long-lived
		// set. The suite measures the steady-state marginal cost.
		if err := set.Run(bytes.NewReader(doc)); err != nil {
			return record{}, err
		}
		var res fluxquery.PassResult
		best, allocs, durs, err := measureAllocs(r.reps, func() (err error) {
			res, err = set.RunPass(nil, bytes.NewReader(doc), fluxquery.PassOptions{})
			return err
		})
		if err != nil {
			return record{}, err
		}
		var peak, out int64
		for _, reg := range regs {
			st, err := reg.Stats()
			if err != nil {
				return record{}, err
			}
			if st.PeakBufferBytes > peak {
				peak = st.PeakBufferBytes
			}
			out += st.OutputBytes
		}
		engine := "flux-fanout"
		if mode == fluxquery.DispatchTrie {
			engine = "flux-trie"
		}
		ds := res.Record
		rec := record{
			Suite: "multiquery", Query: fmt.Sprintf("catalog-%dpaths", mqGroups),
			Engine: engine, Plans: n, DocBytes: len(doc),
			NsPerOp: best.Nanoseconds(), MBPerS: mbPerS(int64(len(doc))*int64(n), best),
			AllocsPerOp: allocs, PeakBufferBytes: peak, OutputBytes: out,
			Proj:              "fast",
			MarginalNsPerPlan: best.Nanoseconds() / int64(n),
			TrieNodes:         ds.TrieNodes,
			TrieDeliveries:    ds.TrieDeliveries,
		}
		return withQuantiles(rec, durs), nil
	}

	var records []record
	for _, n := range []int{100, 1000, 10000} {
		rec, err := measure(fluxquery.DispatchTrie, n)
		if err != nil {
			return nil, fmt.Errorf("multiquery trie %d: %w", n, err)
		}
		records = append(records, rec)
	}
	rec, err := measure(fluxquery.DispatchFanout, 100)
	if err != nil {
		return nil, fmt.Errorf("multiquery fanout: %w", err)
	}
	return append(records, rec), nil
}
