package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"

	"fluxquery"
)

// The oracle holds the reference output of every (query, document) pair
// a workload runs, computed by the in-memory reference engine
// (EngineNaive) in a child process, so neither its time nor its memory
// counts toward the measured process. Only SHA-256 digests cross back:
// an output passes when its digest equals the reference digest, which
// a difference of one byte changes.
type oracle struct {
	refs map[string][sha256.Size]byte
}

// pair names one reference: a query text over a document of the inputs.
type pair struct {
	Src string
	DTD string
	Doc int
}

func refKey(src string, doc int) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:8]) + "@" + strconv.Itoa(doc)
}

// pairs lists the reference outputs a workload's checks need.
func (in *inputs) pairs() []pair {
	var ps []pair
	switch in.Workload {
	case "buffered-spill":
		for d := range in.Docs {
			q := in.Queries[d%len(in.Queries)]
			ps = append(ps, pair{q.Src, q.DTD, d})
		}
	default:
		seen := map[string]bool{}
		for _, q := range append(append([]querySpec(nil), in.Queries...), in.Alts...) {
			for d := range in.Docs {
				if k := refKey(q.Src, d); !seen[k] {
					seen[k] = true
					ps = append(ps, pair{q.Src, q.DTD, d})
				}
			}
		}
	}
	return ps
}

// ok reports whether out is the reference output of src over doc.
func (o *oracle) ok(src string, doc int, out []byte) bool {
	want, found := o.refs[refKey(src, doc)]
	return found && sha256.Sum256(out) == want
}

// oracleReply is what the oracle process prints.
type oracleReply struct {
	Fingerprint string            `json:"fingerprint"`
	Refs        map[string]string `json:"refs"`
}

// computeRefs runs the reference engine over every pair, on up to two
// goroutines.
func computeRefs(in *inputs) (map[string]string, error) {
	dtds := map[string]*fluxquery.DTD{}
	for k, src := range in.DTDs {
		d, err := fluxquery.ParseDTD(src)
		if err != nil {
			return nil, fmt.Errorf("dtd %s: %w", k, err)
		}
		dtds[k] = d
	}
	ps := in.pairs()
	refs := make(map[string]string, len(ps))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan pair)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans := map[string]*fluxquery.Plan{}
			for p := range next {
				plan, ok := plans[p.Src]
				var err error
				if !ok {
					var q *fluxquery.Query
					if q, err = fluxquery.ParseQuery(p.Src); err == nil {
						plan, err = fluxquery.Compile(q, dtds[p.DTD], fluxquery.Options{Engine: fluxquery.EngineNaive})
					}
					plans[p.Src] = plan
				}
				var out bytes.Buffer
				if err == nil {
					_, err = plan.Execute(bytes.NewReader(in.Docs[p.Doc].Data), &out)
				}
				sum := sha256.Sum256(out.Bytes())
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %q on document %d: %w", p.Src, p.Doc, err)
				}
				refs[refKey(p.Src, p.Doc)] = hex.EncodeToString(sum[:])
				mu.Unlock()
			}
		}()
	}
	for _, p := range ps {
		next <- p
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

// runOracleProcess is the child side: regenerate the inputs, compute
// the references and print them.
func runOracleProcess(workload string, seed int64) error {
	in, err := makeInputs(workload, seed)
	if err != nil {
		return err
	}
	refs, err := computeRefs(in)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(oracleReply{Fingerprint: in.fingerprint(), Refs: refs})
}

// loadOracle starts the oracle process for the same workload and seed
// and checks that it generated the same inputs.
func loadOracle(ctx context.Context, in *inputs) (*oracle, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-oracle", "-workload", in.Workload, "-seed", strconv.FormatInt(in.Seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("oracle process: %w", err)
	}
	var rep oracleReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("oracle reply: %w", err)
	}
	if rep.Fingerprint != in.fingerprint() {
		return nil, fmt.Errorf("oracle generated different inputs")
	}
	return newOracle(rep.Refs)
}

func newOracle(refs map[string]string) (*oracle, error) {
	o := &oracle{refs: make(map[string][sha256.Size]byte, len(refs))}
	for k, v := range refs {
		b, err := hex.DecodeString(v)
		if err != nil || len(b) != sha256.Size {
			return nil, fmt.Errorf("oracle digest for %s: %q", k, v)
		}
		o.refs[k] = [sha256.Size]byte(b)
	}
	return o, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
