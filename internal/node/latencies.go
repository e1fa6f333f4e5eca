package node

import "time"

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
// in recorded order. Call it before All is sorted.
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
