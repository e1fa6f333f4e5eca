package node

import (
	"slices"
	"testing"
	"time"
)

// TestLatenciesSplit checks that Split hands each model and each node
// exactly its samples, in recorded order, and leaves All alone.
func TestLatenciesSplit(t *testing.T) {
	samples := []struct {
		lat    time.Duration
		mi, ni int
	}{
		{5, 0, 1}, {3, 2, 0}, {9, 0, 0}, {1, 2, 1}, {7, 0, 1}, {4, 2, 1},
	}
	for _, nodes := range []bool{false, true} {
		l := NewLatencies(len(samples), nodes)
		wantModel := make([][]time.Duration, 4) // model 1 and 3 serve nothing
		wantNode := make([][]time.Duration, 2)
		for _, s := range samples {
			l.Add(s.lat, s.mi, s.ni)
			wantModel[s.mi] = append(wantModel[s.mi], s.lat)
			wantNode[s.ni] = append(wantNode[s.ni], s.lat)
		}
		all := slices.Clone(l.All)
		perModel, perNode := l.Split(len(wantModel), len(wantNode))
		if !slices.Equal(l.All, all) {
			t.Fatalf("nodes=%v: Split changed All to %v", nodes, l.All)
		}
		for mi, want := range wantModel {
			if !slices.Equal(perModel[mi], want) {
				t.Errorf("nodes=%v: model %d got %v, want %v", nodes, mi, perModel[mi], want)
			}
		}
		if !nodes {
			if perNode != nil {
				t.Errorf("per-node samples %v from a record without nodes", perNode)
			}
			continue
		}
		for ni, want := range wantNode {
			if !slices.Equal(perNode[ni], want) {
				t.Errorf("node %d got %v, want %v", ni, perNode[ni], want)
			}
		}
		// Sorting one run in place must not disturb another's.
		slices.Sort(perModel[0])
		if !slices.Equal(perModel[2], wantModel[2]) || !slices.Equal(perNode[1], wantNode[1]) {
			t.Error("sorting one run moved samples of another")
		}
	}
}
