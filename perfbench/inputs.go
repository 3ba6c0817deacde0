package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

// querySpec is one registration: a name, its XQuery text and the key of
// the schema it is compiled against.
type querySpec struct {
	Name string
	Src  string
	DTD  string
}

// docSpec is one generated input document.
type docSpec struct {
	DTD  string
	Data []byte
}

// arrival is one scheduled request of an open loop: when it is due,
// relative to the start of the phase, and what it carries.
type arrival struct {
	Due time.Duration
	Doc int
}

// churnOp is one scheduled write of the churn stream.
type churnOp struct {
	Due    time.Duration
	Name   string
	Delete bool
	Src    string
}

// inputs is everything a workload feeds the program, generated from the
// seed alone: the oracle process regenerates the same value and checks
// its fingerprint.
type inputs struct {
	Workload string
	Seed     int64
	DTDs     map[string]string
	Queries  []querySpec
	// Alts are the churn stream's second versions of churned names.
	Alts []querySpec
	Docs []docSpec
}

// fingerprint hashes every generated input.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	for _, k := range sortedKeys(in.DTDs) {
		fmt.Fprintf(h, "dtd %s %q\n", k, in.DTDs[k])
	}
	for _, q := range append(append([]querySpec(nil), in.Queries...), in.Alts...) {
		fmt.Fprintf(h, "query %s %s %q\n", q.Name, q.DTD, q.Src)
	}
	for _, d := range in.Docs {
		fmt.Fprintf(h, "doc %s %d\n", d.DTD, len(d.Data))
		h.Write(d.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (in *inputs) docBytes() int64 {
	var n int64
	for _, d := range in.Docs {
		n += int64(len(d.Data))
	}
	return n
}

const (
	dtdAuction = "auction"
	dtdWeakBib = "bib-weak"
	dtdCatalog = "catalog"
)

// xmarkQueries are the streaming XMark queries of xmark-stream.
var xmarkQueries = []string{
	"xmark-q1", "xmark-q13", "xmark-q2-bidders", "xmark-q17-nophone",
	"xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
}

// spillQueries are the plans of buffered-spill, one input document each.
var spillQueries = []struct {
	name  string
	bytes int64
}{
	{"xmark-q8-join", spillJoinDocBytes},
	{"xmp-q4-distinct", spillDistinctDocBytes},
	{"xmp-q3-weak", spillWeakDocBytes},
}

var workloadNames = []string{"xmark-stream", "buffered-spill", "serve-subscriptions"}

// makeInputs generates a workload's inputs from the seed.
func makeInputs(name string, seed int64) (*inputs, error) {
	in := &inputs{Workload: name, Seed: seed, DTDs: map[string]string{}}
	switch name {
	case "xmark-stream":
		in.DTDs[dtdAuction] = xmlgen.AuctionDTD
		for _, q := range xmarkQueries {
			in.Queries = append(in.Queries, querySpec{q, workload.ByName(q).Query, dtdAuction})
		}
		in.Docs = []docSpec{{dtdAuction, genDoc(workload.ByName("xmark-q1"), xmarkDocBytes, seed)}}
	case "buffered-spill":
		for v := 0; v < spillVariants; v++ {
			for i, s := range spillQueries {
				c := workload.ByName(s.name)
				key := dtdAuction
				if c.DTD == xmlgen.WeakBibDTD {
					key = dtdWeakBib
				}
				in.DTDs[key] = c.DTD
				if v == 0 {
					in.Queries = append(in.Queries, querySpec{s.name, c.Query, key})
				}
				in.Docs = append(in.Docs, docSpec{key, genDoc(c, s.bytes, seed*31+int64(v*len(spillQueries)+i))})
			}
		}
	case "serve-subscriptions":
		r := rand.New(rand.NewSource(seed))
		in.DTDs[dtdCatalog] = catalogDTD()
		// The constants are spread evenly over 0..99 and dealt to the
		// registrations in a seeded order: every seed has the same mix
		// of selectivities, and few registrations share a plan.
		for i, k := range r.Perm(serveQueries) {
			c := k * 100 / serveQueries
			in.Queries = append(in.Queries, querySpec{fmt.Sprintf("s%03d", i), catalogQuery(i%serveFamilies, c), dtdCatalog})
		}
		// The churned names are every (serveQueries/serveChurned)-th
		// registration; each gets a second version with a new constant.
		for i := 0; i < serveChurned; i++ {
			q := in.Queries[i*serveQueries/serveChurned]
			in.Alts = append(in.Alts, querySpec{q.Name, catalogQuery(i*serveQueries/serveChurned%serveFamilies, 100+r.Intn(100)), dtdCatalog})
		}
		for i := 0; i < serveDocs; i++ {
			size := serveDocMin + i*(serveDocMax-serveDocMin)/(serveDocs-1)
			in.Docs = append(in.Docs, docSpec{dtdCatalog, catalogDoc(r, size)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return in, nil
}

func genDoc(c *workload.Case, size, seed int64) []byte {
	var b bytes.Buffer
	if err := c.Gen(&b, size, seed); err != nil {
		panic(fmt.Sprintf("generating %s: %v", c.Name, err)) // generators write to memory only
	}
	return b.Bytes()
}

// catalogDTD is the serve-subscriptions schema: db holds a free mix of
// serveFamilies group elements, each a star of its own item kind with a
// name and a numeric val in either order.
func catalogDTD() string {
	var sb strings.Builder
	sb.WriteString("<!ELEMENT db (")
	for g := 0; g < serveFamilies; g++ {
		if g > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "g%d", g)
	}
	sb.WriteString(")*>\n")
	for g := 0; g < serveFamilies; g++ {
		fmt.Fprintf(&sb, "<!ELEMENT g%d (item%d)*>\n", g, g)
		fmt.Fprintf(&sb, "<!ELEMENT item%d (name%d|val%d)*>\n", g, g, g)
		fmt.Fprintf(&sb, "<!ELEMENT name%d (#PCDATA)>\n", g)
		fmt.Fprintf(&sb, "<!ELEMENT val%d (#PCDATA)>\n", g)
	}
	return sb.String()
}

// catalogQuery selects the names of family g's items whose val exceeds c.
func catalogQuery(g, c int) string {
	return fmt.Sprintf("<out>{ for $x in $ROOT/db/g%d/item%d where $x/val%d > %d return <r>{ $x/name%d }</r> }</out>",
		g, g, g, c, g)
}

var catalogWords = []string{"alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"}

// catalogDoc writes a catalog document of about size bytes: groups of
// random families, each with a few items.
func catalogDoc(r *rand.Rand, size int) []byte {
	var b bytes.Buffer
	b.WriteString("<db>")
	for b.Len() < size-len("</db>") {
		g := r.Intn(serveFamilies)
		fmt.Fprintf(&b, "<g%d>", g)
		for n := 1 + r.Intn(4); n > 0; n-- {
			fmt.Fprintf(&b, "<item%d><name%d>%s-%d</name%d><val%d>%d</val%d></item%d>",
				g, g, catalogWords[r.Intn(len(catalogWords))], r.Intn(1000), g, g, r.Intn(200), g, g)
		}
		fmt.Fprintf(&b, "</g%d>", g)
	}
	b.WriteString("</db>")
	return b.Bytes()
}

// evalSchedule spreads requests at rate per second over d: evenly
// spaced with seeded jitter of up to a quarter period either way. The
// documents go out in seeded rounds, each a permutation of all of them,
// so every document is posted equally often.
func evalSchedule(r *rand.Rand, rate float64, d time.Duration, docs int) []arrival {
	period := time.Duration(float64(time.Second) / rate)
	out := make([]arrival, int(d/period))
	var round []int
	for i := range out {
		if len(round) == 0 {
			round = r.Perm(docs)
		}
		jitter := time.Duration((r.Float64() - 0.5) * 0.5 * float64(period))
		out[i] = arrival{Due: time.Duration(i)*period + period/2 + jitter, Doc: round[0]}
		round = round[1:]
	}
	return out
}

// churnSchedule alternates each churned name between deleted and
// re-registered, switching versions on every re-registration.
func churnSchedule(r *rand.Rand, in *inputs, rate float64, d time.Duration) []churnOp {
	period := time.Duration(float64(time.Second) / rate)
	n := int(d / period)
	state := make([]int, len(in.Alts)) // 0 orig live, 1 deleted after orig, 2 alt live, 3 deleted after alt
	orig := make(map[string]string)
	for _, q := range in.Queries {
		orig[q.Name] = q.Src
	}
	out := make([]churnOp, 0, n)
	for i := 0; i < n; i++ {
		k := r.Intn(len(in.Alts))
		op := churnOp{Due: time.Duration(i)*period + period/2, Name: in.Alts[k].Name}
		switch state[k] {
		case 0, 2:
			op.Delete = true
		case 1:
			op.Src = in.Alts[k].Src
		case 3:
			op.Src = orig[op.Name]
		}
		state[k] = (state[k] + 1) % 4
		out = append(out, op)
	}
	return out
}
