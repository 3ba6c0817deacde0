package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"fluxquery/internal/workload"
)

// TestExperimentsProduceTables runs the cheap experiments end to end and
// checks their table structure; E1–E3 and E7 share all code paths with
// E4/E5/E8 but sweep larger documents, so they are exercised by the
// bench suite instead.
func TestExperimentsProduceTables(t *testing.T) {
	var sb strings.Builder
	r := &runner{scale: 1, reps: 1, w: &sb}
	if err := e4(r); err != nil {
		t.Fatal(err)
	}
	if err := e5(r); err != nil {
		t.Fatal(err)
	}
	if err := e6(r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"E4: DTD strength", "weak", "strong",
		"E5: loop merging", "merged (optimizer on)",
		"E6: conditional elimination", "eliminated (optimizer on)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The strong dialect row must report 0B peak.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "strong") && !strings.Contains(line, "0B") {
			t.Errorf("strong DTD row should be bufferless: %s", line)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"} {
		if experiments[id] == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if got := sortedIDs(); !strings.Contains(got, "e1") || !strings.Contains(got, "e8") {
		t.Errorf("sortedIDs = %s", got)
	}
}

// TestJSONModeWritesRecords runs -json end to end (reps=1) and checks the
// trajectory-file schema: every workload case on every engine plus the
// shared-stream pair, each with sane measurements.
func TestJSONModeWritesRecords(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	r := &runner{scale: 1, reps: 1, w: io.Discard}
	if err := runJSON(r, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []record
	if err := json.Unmarshal(b, &records); err != nil {
		t.Fatal(err)
	}
	// Per case: flux with projection off and fast, plus the two baseline
	// engines. Shared-stream: the mqe pass with projection off and fast,
	// plus the sequential comparison. Budgeted: the two spill workloads.
	// Parallel: the shared pass at GOMAXPROCS=1 (inline) and at the
	// machine's width (staged).
	// Multiquery: trie dispatch at 100/1k/10k plus fanout at 100.
	wantWorkload := len(workload.Cases) * 4
	if len(records) != wantWorkload+3+2+2+4 {
		t.Fatalf("got %d records, want %d workload + 3 shared-stream + 2 budgeted + 2 parallel + 4 multiquery", len(records), wantWorkload)
	}
	sharedSeen, fluxFast, budgeted, parSeen := 0, 0, 0, 0
	mqMarginal := map[int]int64{}
	for _, rec := range records {
		if rec.NsPerOp <= 0 || rec.MBPerS <= 0 || rec.DocBytes <= 0 {
			t.Errorf("degenerate record: %+v", rec)
		}
		if rec.GoMaxProcs <= 0 {
			t.Errorf("record without gomaxprocs: %+v", rec)
		}
		if rec.Suite == "parallel" {
			parSeen++
			if rec.Plans != 8 {
				t.Errorf("parallel record with %d plans: %+v", rec.Plans, rec)
			}
			switch rec.Engine {
			case "flux-mqe-seq":
				if rec.Parallel != 0 || rec.GoMaxProcs != 1 {
					t.Errorf("inline record at gomaxprocs=%d carries parallel=%d", rec.GoMaxProcs, rec.Parallel)
				}
			case "flux-mqe-parallel":
				if rec.Parallel < 2 || rec.GoMaxProcs < 2 {
					t.Errorf("staged record without its width: %+v", rec)
				}
			default:
				t.Errorf("unexpected parallel-suite engine %q", rec.Engine)
			}
		}
		if rec.Suite == "shared-stream" {
			sharedSeen++
			if rec.Plans != 8 {
				t.Errorf("shared-stream record with %d plans: %+v", rec.Plans, rec)
			}
		}
		if rec.Suite == "workload" && rec.Engine == "flux" && rec.Proj == "fast" {
			fluxFast++
		}
		if rec.Suite == "multiquery" {
			if rec.MarginalNsPerPlan <= 0 {
				t.Errorf("multiquery record without marginal cost: %+v", rec)
			}
			if rec.Engine == "flux-trie" {
				if rec.TrieNodes == 0 || rec.TrieDeliveries == 0 {
					t.Errorf("trie record reports no trie work: %+v", rec)
				}
				mqMarginal[rec.Plans] = rec.MarginalNsPerPlan
			}
		}
		if rec.Suite == "budgeted" {
			budgeted++
			if rec.Budget <= 0 || rec.SpilledBytes == 0 || rec.RehydratedBytes == 0 {
				t.Errorf("budgeted record did not exercise the spill path: %+v", rec)
			}
			if rec.PeakHeapBufferBytes > rec.Budget {
				t.Errorf("budgeted record heap peak %d over budget %d", rec.PeakHeapBufferBytes, rec.Budget)
			}
		}
	}
	if sharedSeen != 3 {
		t.Errorf("shared-stream records = %d, want 3", sharedSeen)
	}
	if budgeted != 2 {
		t.Errorf("budgeted records = %d, want 2", budgeted)
	}
	if fluxFast != len(workload.Cases) {
		t.Errorf("flux proj=fast records = %d, want one per case (%d)", fluxFast, len(workload.Cases))
	}
	if parSeen != 2 {
		t.Errorf("parallel records = %d, want 2", parSeen)
	}
	// The acceptance shape: interning keeps per-plan marginal cost flat,
	// so 10k registrations must stay within 2x of the 100-plan marginal.
	if m100, m10k := mqMarginal[100], mqMarginal[10000]; m100 == 0 || m10k == 0 {
		t.Errorf("multiquery trie records missing (marginals: %v)", mqMarginal)
	} else if m10k > 2*m100 {
		t.Errorf("multiquery marginal cost at 10k = %dns/plan, more than 2x the 100-plan marginal %dns/plan", m10k, m100)
	}
}
