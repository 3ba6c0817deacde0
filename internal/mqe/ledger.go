package mqe

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fluxquery/internal/bufmgr"
	"fluxquery/internal/runtime"
)

// QueryStats is the cumulative cost ledger of one registered query name:
// what the query has cost the process across every shared pass it rode.
// Where runtime.Stats describes one pass, QueryStats attributes spend —
// evaluator CPU, delivered data, buffer residency, failures — to the
// query so a server can answer "which of my 10k registered queries is
// expensive" without retaining every pass.
type QueryStats struct {
	// Name is the registration name the entry aggregates over.
	Name string `json:"name"`
	// Passes counts shared passes the query rode; Errors counts the
	// subset that ended with a per-query error, BudgetRejections the
	// subset of those that exceeded the buffer budget, and LastError
	// carries the most recent error ("" while error-free). A pass the
	// query left by being unregistered mid-stream is not counted.
	Passes           int64  `json:"passes"`
	Errors           int64  `json:"errors"`
	BudgetRejections int64  `json:"budget_rejections,omitempty"`
	LastError        string `json:"last_error,omitempty"`
	// EvalCPU is cumulative evaluator time attributed to the query:
	// the summed wall time of its batch evaluations (under a parallel
	// pass these overlap other queries' evaluations, so the sum across
	// queries can exceed pass wall time — it is CPU attribution, not
	// latency).
	EvalCPU time.Duration `json:"eval_cpu_ns"`
	// Events counts events the query consumed; OutputBytes the result
	// bytes it produced.
	Events      int64 `json:"events"`
	OutputBytes int64 `json:"output_bytes"`
	// PeakBufferBytes and PeakHeapBufferBytes are high-water marks
	// across all passes; SpilledBytes and RehydratedBytes accumulate
	// spill traffic, BudgetStall the backpressure stall of the passes
	// the query rode.
	PeakBufferBytes     int64         `json:"peak_buffer_bytes"`
	PeakHeapBufferBytes int64         `json:"peak_heap_buffer_bytes"`
	SpilledBytes        int64         `json:"spilled_bytes"`
	RehydratedBytes     int64         `json:"rehydrated_bytes,omitempty"`
	BudgetStall         time.Duration `json:"budget_stall_ns,omitempty"`
	// LastPassID is the most recent pass that included the query.
	LastPassID uint64 `json:"last_pass_id,omitempty"`
}

// Ledger accumulates per-query cost attribution across shared passes,
// and across every Set it is installed on (SetLedger). All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Ledger struct {
	mu      sync.Mutex
	entries map[string]*QueryStats
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: map[string]*QueryStats{}}
}

// record folds one query's pass outcome into its entry. Called once per
// (query, pass) when the pass ends; st is nil for a run that never
// started. An unregistration mid-pass is not an outcome and leaves the
// entry untouched.
func (l *Ledger) record(name string, st *runtime.Stats, evalCPU time.Duration, err error) {
	if l == nil || errors.Is(err, ErrUnregistered) {
		return
	}
	l.mu.Lock()
	e := l.entries[name]
	if e == nil {
		e = &QueryStats{Name: name}
		l.entries[name] = e
	}
	e.Passes++
	if err != nil {
		e.Errors++
		e.LastError = err.Error()
		if errors.Is(err, bufmgr.ErrBudgetExceeded) {
			e.BudgetRejections++
		}
	}
	e.EvalCPU += evalCPU
	if st != nil {
		e.Events += st.Events
		e.OutputBytes += st.OutputBytes
		e.PeakBufferBytes = max(e.PeakBufferBytes, st.PeakBufferBytes)
		e.PeakHeapBufferBytes = max(e.PeakHeapBufferBytes, st.PeakHeapBufferBytes)
		e.SpilledBytes += st.SpilledBytes
		e.RehydratedBytes += st.RehydratedBytes
		e.BudgetStall += st.BudgetStall
		e.LastPassID = st.PassID
	}
	l.mu.Unlock()
}

// Len returns the number of distinct query names in the ledger.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Get returns the entry for one query name.
func (l *Ledger) Get(name string) (QueryStats, bool) {
	if l == nil {
		return QueryStats{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[name]
	if !ok {
		return QueryStats{}, false
	}
	return *e, true
}

// Stats returns every entry, sorted by name.
func (l *Ledger) Stats() []QueryStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]QueryStats, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, *e)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Axes accepted by TopK.
var ledgerAxes = []string{"cpu", "events", "bytes", "buffer", "errors", "passes"}

// Axes returns the axis names TopK accepts.
func Axes() []string { return append([]string(nil), ledgerAxes...) }

// axisValue extracts the ranking key for one axis.
func axisValue(e *QueryStats, axis string) (int64, bool) {
	switch axis {
	case "cpu":
		return int64(e.EvalCPU), true
	case "events":
		return e.Events, true
	case "bytes":
		return e.OutputBytes, true
	case "buffer":
		return e.PeakHeapBufferBytes, true
	case "errors":
		return e.Errors, true
	case "passes":
		return e.Passes, true
	}
	return 0, false
}

// TopK returns the k entries with the largest value on the given axis
// ("cpu", "events", "bytes", "buffer", "errors", "passes"), descending;
// ties break by name for determinism. k <= 0 returns every entry.
func (l *Ledger) TopK(axis string, k int) ([]QueryStats, error) {
	if _, ok := axisValue(&QueryStats{}, axis); !ok {
		return nil, fmt.Errorf("mqe: unknown ledger axis %q (want one of %v)", axis, ledgerAxes)
	}
	if l == nil {
		return nil, nil
	}
	all := l.Stats()
	sort.SliceStable(all, func(i, j int) bool {
		vi, _ := axisValue(&all[i], axis)
		vj, _ := axisValue(&all[j], axis)
		if vi != vj {
			return vi > vj
		}
		return all[i].Name < all[j].Name
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all, nil
}

// Reset clears every entry (tests and administrative endpoints).
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = map[string]*QueryStats{}
	l.mu.Unlock()
}
