package node

import (
	"math/bits"
	"slices"
	"time"
)

// Latencies records a run's served latencies once each, in completion
// order, with the ordinal of the model each served and, in a fleet, of
// the node that served it. Split copies the per-model and per-node
// samples out at report time, so a run appends to no per-model or
// per-node slice.
type Latencies struct {
	All   []time.Duration
	model []int32
	node  []int32 // nil unless nodes are recorded
}

// NewLatencies presizes a record for n samples; nodes records each
// sample's node ordinal too.
func NewLatencies(n int, nodes bool) Latencies {
	l := Latencies{All: make([]time.Duration, 0, n), model: make([]int32, 0, n)}
	if nodes {
		l.node = make([]int32, 0, n)
	}
	return l
}

// Add records latency lat of model mi, served on node ni (ignored
// unless nodes are recorded).
func (l *Latencies) Add(lat time.Duration, mi, ni int) {
	l.All = append(l.All, lat)
	l.model = append(l.model, int32(mi))
	if l.node != nil {
		l.node = append(l.node, int32(ni))
	}
}

// Split copies the samples out into one buffer: perModel[mi] holds model
// mi's and perNode[ni] node ni's (nil unless nodes are recorded), each
// in recorded order. Call it before a report reorders All by
// selection (Rank).
func (l *Latencies) Split(models, nodes int) (perModel, perNode [][]time.Duration) {
	n := len(l.All)
	if l.node == nil {
		return spread(make([]time.Duration, n), l.All, l.model, models), nil
	}
	buf := make([]time.Duration, 2*n)
	return spread(buf[:n], l.All, l.model, models), spread(buf[n:], l.All, l.node, nodes)
}

// spread copies each sample into its class's run of dst, which holds
// every sample once, and returns the k runs.
func spread(dst, samples []time.Duration, class []int32, k int) [][]time.Duration {
	runs := make([][]time.Duration, k)
	counts := make([]int, k)
	for _, c := range class {
		counts[c]++
	}
	off := 0
	for c, cnt := range counts {
		runs[c] = dst[off : off : off+cnt]
		off += cnt
	}
	for i, c := range class {
		runs[c] = append(runs[c], samples[i])
	}
	return runs
}

// Rank reorders samples in place so that samples[k] holds the sample a
// sort would put there, with none larger before it and none smaller
// after it, and returns that sample; k must index samples. Ranking the
// percentiles of a report this way sorts no slice. Rank is a quickselect
// whose Hoare partition stops on equal keys, so a run of one value
// splits evenly; after rankRounds rounds it sorts the range left.
func Rank(samples []time.Duration, k int) time.Duration {
	v, _ := rank(samples, k)
	return v
}

// rankRounds bounds Rank's partition rounds over n samples: a median of
// three shrinks a random range to about 0.69 of itself per round, so
// random inputs finish well within it, and an adversarial one costs
// O(n log n) before its fallback sort.
func rankRounds(n int) int { return 2 * bits.Len(uint(n)) }

// rank is Rank, also reporting whether it fell back to sorting.
func rank(a []time.Duration, k int) (v time.Duration, sorted bool) {
	lo, hi := 0, len(a)-1
	for rounds := rankRounds(len(a)); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo : hi+1])
			return a[k], true
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		// The scans stop on keys equal to p, and p is in the range, so
		// neither runs past it; every round leaves a[lo:i] <= p <=
		// a[j+1:hi+1] with j < i, and shrinks the range.
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default: // j < k < i: a[k] is p itself
			return a[k], false
		}
	}
	return a[k], false
}

// median3 returns the median of a, b and c.
func median3(a, b, c time.Duration) time.Duration {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}
