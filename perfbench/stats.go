package main

import (
	"fmt"
	"sort"
)

// tailBeyond is the number of samples the tail percentile must leave above
// it: a percentile with fewer samples beyond it rests on a handful of
// outliers and does not repeat from run to run.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is one tail-latency figure: the value, the nearest-rank percentile it
// sits at, and the sample count it was taken from.
type tail struct {
	Value      float64
	Percentile float64
	N, Beyond  int
}

func (t tail) String() string {
	return fmt.Sprintf("p%.1f of %d samples (%d beyond)", t.Percentile, t.N, t.Beyond)
}

// tailPercentile returns the highest nearest-rank percentile that has at
// least tailBeyond samples strictly above its rank: the (tailBeyond+1)-th
// largest sample, at percentile 100·(n−tailBeyond)/n. The rule never ranks
// at or below the median's rank, so with 2·tailBeyond samples or fewer the
// tail is the first sample above the middle and has fewer than tailBeyond
// beyond it; the report states how many. An empty sample reports zero.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	rank := n - tailBeyond // 1-based nearest rank
	if above := n/2 + 1; rank < above {
		rank = above
	}
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n, Beyond: n - rank}
}

// ratio is num/den with an empty base reported as zero; every ratio the
// benchmark prints names its base next to it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
