package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this program reports match the ones an acceptance script
// computes from its output. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles: need at least 2 values, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread: median is 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice and how many samples lie beyond it.
func percentile(asc []float64, p float64) (v float64, beyond int) {
	n := len(asc)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1], n - rank
}

// tailLadder lists the percentiles a tail may be reported at, lowest
// first. Fixing the ladder keeps tails comparable between runs whose
// sample counts stay inside one band of it.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tail is a tail percentile with the evidence behind it.
type tail struct {
	P      float64 // percentile reported (0 when no rung qualified: Value is then the maximum)
	Value  float64
	N      int // samples
	Beyond int // samples above Value
}

// Label renders the percentile and its sample count, e.g. "p75 of 64".
func (t tail) Label() string {
	if t.P == 0 {
		return fmt.Sprintf("max of %d (fewer than %d samples beyond p50)", t.N, minBeyond)
	}
	return fmt.Sprintf("p%.4g of %d (%d beyond)", t.P*100, t.N, t.Beyond)
}

// tailOf reports the highest ladder percentile of xs that still has at
// least minBeyond samples beyond it. With too few samples for even the
// median to qualify it reports the maximum, labelled as such.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	t := tail{N: len(s)}
	if len(s) == 0 {
		t.Value = math.NaN()
		return t
	}
	t.Value = s[len(s)-1]
	for _, p := range tailLadder {
		v, beyond := percentile(s, p)
		if beyond < minBeyond {
			break
		}
		t.P, t.Value, t.Beyond = p, v, beyond
	}
	return t
}
