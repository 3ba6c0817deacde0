package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// The host reference. The development machine is a 2-vCPU VM on a
// shared host whose speed drifts by 40% or more over minutes, as its
// neighbours come and go; a run's raw timings move with it, and runs
// of identical code spread past any useful bound. Every timed metric is
// therefore expressed in refs: one ref is the time, measured beside the
// sample on the same machine in the same minute, of a fixed piece of
// work that shares no code with fluxquery — sorting ints, sorting
// strings and churning a map, all over memory allocated once, so it
// never triggers a collection of the program's garbage. A change to the
// program moves its time and leaves the ref alone; a host slowdown
// moves both. The raw timings stay on the summary line.
//
// Over 30 s of mixed xmark-stream and buffered-spill ops on that
// machine, the quartile spread over median of the 30 s means fell from
// 0.13 raw to 0.04 in refs.

const (
	refInts    = 60000
	refStrings = 20000
	refKeys    = 16384
	// refBlockReps is how often a block runs the work; the block's
	// value is the median.
	refBlockReps = 5
	// refRound is how long a closed loop runs between two blocks.
	refRound = time.Second
)

// hostRef holds the reference work's inputs and its scratch space. The
// inputs are fixed, not seeded: a ref must be the same work in every
// run.
type hostRef struct {
	ints, intBuf []int
	strs, strBuf []string
	m            map[int]int
	keys         []int
	sink         int
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewSource(1))
	h := &hostRef{
		ints: make([]int, refInts), intBuf: make([]int, refInts),
		strs: make([]string, refStrings), strBuf: make([]string, refStrings),
		m: make(map[int]int, refKeys), keys: make([]int, refKeys),
	}
	for i := range h.ints {
		h.ints[i] = r.Int()
	}
	for i := range h.strs {
		h.strs[i] = strconv.FormatInt(r.Int63(), 36)
	}
	for i := range h.keys {
		h.keys[i] = r.Int()
		h.m[h.keys[i]] = i
	}
	return h
}

// once runs the reference work one time.
func (h *hostRef) once() time.Duration {
	t0 := time.Now()
	copy(h.intBuf, h.ints)
	slices.Sort(h.intBuf)
	copy(h.strBuf, h.strs)
	slices.Sort(h.strBuf)
	s := 0
	for _, k := range h.keys {
		s += h.m[k]
		delete(h.m, k)
		h.m[k] = s & 0xffff
	}
	h.sink += s
	return time.Since(t0)
}

// block runs the work refBlockReps times and returns the median in ms.
func (h *hostRef) block() float64 {
	xs := make([]float64, refBlockReps)
	for i := range xs {
		xs[i] = ms(h.once())
	}
	return median(sortedCopy(xs))
}

// timing is one timed sample and the ref in force when it was taken,
// both in ms.
type timing struct {
	ms, ref float64
}

func (t timing) refs() float64 { return t.ms / t.ref }

// inRefs returns the samples in refs, sorted.
func inRefs(ts []timing) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.refs()
	}
	return sortedCopy(xs)
}

// rawMs returns the samples in ms, sorted.
func rawMs(ts []timing) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.ms
	}
	return sortedCopy(xs)
}

// stamp sets the ref of every sample in ts to the mean of the blocks
// taken just before and just after them.
func stamp(ts []timing, before, after float64) {
	for i := range ts {
		ts[i].ref = (before + after) / 2
	}
}
