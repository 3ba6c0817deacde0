// Package faultinj is the engine's fault-injection layer: a small
// registry of named sites on the streaming hot paths (spill-store I/O,
// request-body reads, pipeline ring hand-offs) where tests, fluxbench
// -fault runs and operators can arm error, latency or short-write
// faults. The disabled path — the only one production traffic ever
// sees — is a single atomic load per site hit.
//
// Sites are declared here, centrally, so the fault-matrix test can
// enumerate them (Sites) and prove each one reachable: every injection
// is counted per site (Injected), and a site whose counter stays zero
// under an armed fault is a regression, not a pass.
package faultinj

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery/internal/telemetry"
)

// The named fault sites. Each constant is the site's wire name, used in
// specs (Arm / ArmSpec), metrics labels and test tables.
const (
	// SiteSpillWrite covers segment writes in the bufmgr spill store.
	SiteSpillWrite = "spill.write"
	// SiteSpillRead covers segment reads (rehydration) in the spill store.
	SiteSpillRead = "spill.read"
	// SiteBodyRead covers fluxserve request-body reads.
	SiteBodyRead = "body.read"
	// SiteRingToken covers the tokenizer→validator ring hand-off of the
	// staged pass (GOMAXPROCS >= 2).
	SiteRingToken = "ring.token"
	// SiteRingEvent covers the validator→dispatcher ring hand-off.
	SiteRingEvent = "ring.event"
)

// Mode selects what an armed fault does at its site.
type Mode uint8

const (
	// ModeError fails the operation with an injected error.
	ModeError Mode = iota
	// ModeLatency delays the operation, then lets it proceed.
	ModeLatency
	// ModeShortWrite truncates the operation's payload and fails with a
	// short-write error. At non-write sites it degrades to ModeError.
	ModeShortWrite
)

// String returns the mode's spec name.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeShortWrite:
		return "shortwrite"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses a spec mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "error":
		return ModeError, nil
	case "latency":
		return ModeLatency, nil
	case "shortwrite", "short-write":
		return ModeShortWrite, nil
	}
	return 0, fmt.Errorf("faultinj: unknown mode %q", s)
}

// Modes enumerates every fault mode, in spec order.
func Modes() []Mode { return []Mode{ModeError, ModeLatency, ModeShortWrite} }

// ErrInjected is the sentinel wrapped by every injected error, so
// callers can classify a failure as synthetic with errors.Is.
var ErrInjected = errors.New("injected fault")

// Fault is one armed fault.
type Fault struct {
	Mode Mode
	// Latency is the delay for ModeLatency (default 1ms).
	Latency time.Duration
	// Times bounds how often the fault fires before auto-disarming;
	// 0 means every hit. A Times=1 error fault followed by success is
	// exactly the transient-I/O shape the spill retry path recovers from.
	Times int64
}

// site is one registered site's armed state and counters.
type site struct {
	mu       sync.Mutex
	fault    Fault
	armed    bool
	err      error // prewrapped, allocated at Arm time
	left     int64 // remaining injections when fault.Times > 0
	hits     atomic.Int64
	injected atomic.Int64
}

var (
	// enabled is the global fast-path switch: zero while no site is
	// armed, so a disabled Hit is one atomic load and a branch.
	enabled atomic.Int32
	sites   = map[string]*site{
		SiteSpillWrite: {},
		SiteSpillRead:  {},
		SiteBodyRead:   {},
		SiteRingToken:  {},
		SiteRingEvent:  {},
	}
)

// Sites returns every registered site name, sorted.
func Sites() []string {
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Arm installs a fault at the named site. Arming any site enables the
// injection slow path process-wide until Reset or the last Disarm.
func Arm(name string, f Fault) error {
	s, ok := sites[name]
	if !ok {
		return fmt.Errorf("faultinj: unknown site %q", name)
	}
	if f.Mode == ModeLatency && f.Latency <= 0 {
		f.Latency = time.Millisecond
	}
	s.mu.Lock()
	if !s.armed {
		enabled.Add(1)
	}
	s.armed = true
	s.fault = f
	s.left = f.Times
	s.err = fmt.Errorf("faultinj: %s at %s: %w", f.Mode, name, ErrInjected)
	if f.Mode == ModeShortWrite {
		s.err = fmt.Errorf("faultinj: %s at %s: %w (%w)", f.Mode, name, io.ErrShortWrite, ErrInjected)
	}
	s.mu.Unlock()
	return nil
}

// Disarm removes the fault at the named site, if any.
func Disarm(name string) {
	s, ok := sites[name]
	if !ok {
		return
	}
	s.mu.Lock()
	if s.armed {
		s.armed = false
		enabled.Add(-1)
	}
	s.mu.Unlock()
}

// Reset disarms every site and zeroes all counters.
func Reset() {
	for _, s := range sites {
		s.mu.Lock()
		if s.armed {
			s.armed = false
			enabled.Add(-1)
		}
		s.hits.Store(0)
		s.injected.Store(0)
		s.mu.Unlock()
	}
}

// Hits returns how many times the named site was reached while any
// fault was armed anywhere (reachability evidence for the matrix test).
func Hits(name string) int64 {
	if s, ok := sites[name]; ok {
		return s.hits.Load()
	}
	return 0
}

// Injected returns how many faults the named site has injected.
func Injected(name string) int64 {
	if s, ok := sites[name]; ok {
		return s.injected.Load()
	}
	return 0
}

// TotalInjected returns the process-wide injected-fault count summed
// across every site (a handful of atomic loads — cheap enough for
// per-pass attribution deltas).
func TotalInjected() int64 {
	var n int64
	for _, s := range sites {
		n += s.injected.Load()
	}
	return n
}

// take decides whether the site's armed fault fires for this hit and
// returns the fault and prewrapped error when it does.
func (s *site) take() (Fault, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return Fault{}, nil, false
	}
	if s.fault.Times > 0 {
		if s.left <= 0 {
			return Fault{}, nil, false
		}
		s.left--
	}
	s.injected.Add(1)
	return s.fault, s.err, true
}

// Hit marks one pass through the named site. It returns nil when
// injection is disabled or the site is not armed; under an armed error
// or short-write fault it returns the injected error; under a latency
// fault it sleeps, then returns nil.
func Hit(name string) error {
	if enabled.Load() == 0 {
		return nil
	}
	s, ok := sites[name]
	if !ok {
		return nil
	}
	s.hits.Add(1)
	f, err, fire := s.take()
	if !fire {
		return nil
	}
	if f.Mode == ModeLatency {
		time.Sleep(f.Latency)
		return nil
	}
	return err
}

// Cut is the write-site form of Hit: n is the intended write length and
// the result is how much to actually write plus the error to report.
// Disabled or unarmed: (n, nil). Error fault: (0, err). Short write:
// (n/2, err) — the caller writes the prefix, then fails, exactly the
// torn write a crashed disk produces. Latency: sleeps, then (n, nil).
func Cut(name string, n int) (int, error) {
	if enabled.Load() == 0 {
		return n, nil
	}
	s, ok := sites[name]
	if !ok {
		return n, nil
	}
	s.hits.Add(1)
	f, err, fire := s.take()
	if !fire {
		return n, nil
	}
	switch f.Mode {
	case ModeLatency:
		time.Sleep(f.Latency)
		return n, nil
	case ModeShortWrite:
		return n / 2, err
	}
	return 0, err
}

// ArmSpec arms faults from a comma-separated spec list. Each item is
// "site:mode[:param]" — param is the delay for latency faults (a
// Go duration) and the fire count for error/short-write faults:
//
//	spill.write:error        fail every spill write
//	spill.write:error:1      fail exactly one write (transient)
//	body.read:latency:5ms    delay every body read by 5ms
//	ring.token:shortwrite    torn hand-off on the token ring
//
// This is the grammar behind test env vars and fluxbench -fault.
func ArmSpec(spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("faultinj: bad spec %q (want site:mode[:param])", item)
		}
		mode, err := ParseMode(parts[1])
		if err != nil {
			return err
		}
		f := Fault{Mode: mode}
		if len(parts) == 3 {
			switch mode {
			case ModeLatency:
				d, err := time.ParseDuration(parts[2])
				if err != nil {
					return fmt.Errorf("faultinj: bad latency in %q: %w", item, err)
				}
				f.Latency = d
			default:
				nTimes, err := strconv.ParseInt(parts[2], 10, 64)
				if err != nil {
					return fmt.Errorf("faultinj: bad count in %q: %w", item, err)
				}
				f.Times = nTimes
			}
		}
		if err := Arm(parts[0], f); err != nil {
			return err
		}
	}
	return nil
}

// EnvVar is the environment variable holding an ArmSpec list applied
// at process start, so faults can be armed on an unmodified binary
// (FLUX_FAULT=spill.write:error:1 fluxserve ...).
const EnvVar = "FLUX_FAULT"

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		// A typo in a fault spec must not silently run a fault-free
		// experiment; fail loudly at startup.
		if err := ArmSpec(spec); err != nil {
			panic(fmt.Sprintf("faultinj: %s: %v", EnvVar, err))
		}
	}
}

// A Reader wraps an io.Reader with a fault site: every Read passes
// through Hit(site) first. It wraps the fluxserve request body so
// client-side stalls and failures are injectable.
type Reader struct {
	Site string
	R    io.Reader
}

func (r *Reader) Read(p []byte) (int, error) {
	if err := Hit(r.Site); err != nil {
		return 0, err
	}
	return r.R.Read(p)
}

// RegisterMetrics publishes one flux_fault_injected_total{site} series
// per registered site on reg, read from the live counters at scrape
// time. Nil registry is a no-op.
func RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, name := range Sites() {
		s := sites[name]
		reg.CounterFunc("flux_fault_injected_total",
			"Faults injected by the faultinj layer, by site.",
			telemetry.ScaleNone, s.injected.Load,
			telemetry.L("site", name))
	}
}
