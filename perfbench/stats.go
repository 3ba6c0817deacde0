package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported tail percentile must have
// strictly above it: a percentile resting on fewer is one outlier away
// from a different number.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted and refuses one with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond && p > 50 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// tailValue is a tail percentile with the percentile actually used and
// the sample count.
type tailValue struct {
	Value float64
	P     float64
	N     int
}

// tail is the p-th percentile of sorted if percentile accepts it, and
// otherwise the highest percentile with minBeyond samples beyond it
// (never below the median).
func tail(sorted []float64, p float64) (tailValue, error) {
	n := len(sorted)
	if n == 0 {
		return tailValue{}, fmt.Errorf("tail of no samples")
	}
	if v, err := percentile(sorted, p); err == nil {
		return tailValue{v, p, n}, nil
	}
	rank := max(n-minBeyond, (n+1)/2)
	return tailValue{sorted[rank-1], 100 * float64(rank) / float64(n), n}, nil
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
