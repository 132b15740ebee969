package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail can be reported at, from
// the highest down. A fixed ladder keeps the chosen percentile the same
// across runs of the same op count, so tails stay comparable.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than a single outlier.
const minBeyond = 10

// tail is a tail latency together with the percentile it was taken at
// and the number of samples beyond it.
type tail struct {
	Pct    float64 `json:"pct"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartiles of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), which
// is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailOf picks the highest ladder percentile with at least minBeyond
// samples strictly above it. With fewer than minBeyond+1 samples no
// percentile qualifies and the maximum is reported at 100 with zero
// samples beyond, so the record states plainly how thin the tail is.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		v := quantile(s, p/100)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return tail{Pct: p, Value: v, Beyond: beyond}
		}
	}
	if len(s) == 0 {
		return tail{Pct: 100, Value: math.NaN()}
	}
	return tail{Pct: 100, Value: s[len(s)-1]}
}
