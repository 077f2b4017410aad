package main

import (
	"math"
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle of v (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the driver computes. Fewer than two
// samples have no spread: all three are the sample itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadFrac is the distance between the first and third quartile as a
// share of the median.
func spreadFrac(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// percentile returns the p-th percentile (0..100) of v by the
// nearest-rank rule.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it; ok is false when even p90 has
// fewer (under 100 samples there is no tail to speak of).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// karpFlatt is the experimentally determined serial fraction of
// Karp & Flatt: e = (1/s - 1/p) / (1 - 1/p) for a speedup s on p
// processors. It is the outside estimate of the share of the run that
// did not parallelise; 0 when p < 2.
func karpFlatt(speedup float64, p int) float64 {
	if p < 2 || speedup <= 0 {
		return 0
	}
	ip := 1 / float64(p)
	return (1/speedup - ip) / (1 - ip)
}

// geomean is the geometric mean of positive values; 0 if any is not
// positive.
func geomean(v ...float64) float64 {
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	if len(v) == 0 {
		return 0
	}
	return math.Exp(sum / float64(len(v)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
