package node

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// FuzzRank holds Rank to a sort. Each input byte is one sample, so long
// inputs repeat values heavily, as a report's front-cache hits all
// record one latency. For every k, Rank must return the k-th sample of a
// sorted copy, leave it at k with none larger before it and none smaller
// after it, and only reorder the samples. The checked-in corpus holds
// sorted, reversed, organ-pipe, all-equal, half-cache-hit and random
// runs, and the adversary of TestRankFallsBackOnAdversary.
func FuzzRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		var count [256]int
		samples := make([]time.Duration, len(data))
		for i, b := range data {
			samples[i] = time.Duration(b)
			count[b]++
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		a := make([]time.Duration, len(samples))
		for k := range samples {
			copy(a, samples)
			if got := Rank(a, k); got != sorted[k] || a[k] != got {
				t.Fatalf("k=%d: Rank = %v leaving %v at k, want %v", k, got, a[k], sorted[k])
			}
			left := count
			for i, v := range a {
				if i < k && v > a[k] || i > k && v < a[k] {
					t.Fatalf("k=%d: sample %v at %d is on the wrong side of %v", k, v, i, a[k])
				}
				if left[v]--; left[v] < 0 {
					t.Fatalf("k=%d: Rank made a sample %v", k, v)
				}
			}
		}
	})
}

// TestRankFallsBackOnAdversary: the corpus's adversary, built with
// McIlroy's gas-and-solid method against Rank's median-of-three
// partition, keeps the median's side nearly whole every round, so Rank
// must end in its fallback sort, and still rank right.
func TestRankFallsBackOnAdversary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRank", "adversary"))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil || len(data) != 64 {
		t.Fatalf("adversary corpus: %d bytes, %v", len(data), err)
	}
	a := make([]time.Duration, len(data))
	for i := range data {
		a[i] = time.Duration(data[i])
	}
	k := len(a) / 2
	if v, fell := rank(a, k); !fell || v != time.Duration(k) {
		t.Fatalf("rank(adversary, %d) = %v, fallback %v; want %d from the fallback", k, v, fell, k)
	}
	// A scattered permutation of the same values finishes by selection.
	for i := range a {
		a[i] = time.Duration(i * 7919 % 64)
	}
	if _, fell := rank(a, k); fell {
		t.Fatal("rank fell back on a scattered permutation")
	}
}
