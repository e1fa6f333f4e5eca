// Front-cache: serve repeated traffic without touching a replica group.
//
// Production inference traffic repeats itself — popular inputs follow a
// Zipf law — and a memoized result costs a hash probe instead of a full
// §VI-B replica-group dispatch. This example puts the bounded LRU
// front-cache ahead of the admission queue and measures when it turns
// into free capacity.
//
// Part 1 drives an offered load λ above the replica groups' no-cache
// capacity bound C through the virtual-clock simulator twice — cache off
// and cache on — under the same seeded Zipf(1.1) reuse distribution.
// Past the break-even hit rate h* = 1 − C/λ the cached run sustains the
// full offered rate: throughput above the capacity bound, p99 collapsed,
// rejections gone. Part 2 sweeps the cache capacity from 0 to the full
// reuse universe and prints the break-even frontier. Part 3 runs the
// bit-exact server with the cache on and shows every hit is
// byte-identical to calling System.Run directly — a byte compare
// against the stored input guards every hit, so a cached response is
// never wrong.
//
//	go run ./examples/cache
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"neuralcache"
	"neuralcache/serve"
)

func main() {
	log.SetFlags(0)
	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// --- Part 1: cached vs uncached above the capacity bound ----------
	backend := serve.NewAnalyticBackend(sys, neuralcache.InceptionV3())
	load := serve.Load{
		Rate: 2000, Requests: 40_000, Seed: 42, Poisson: true,
		Reuse: serve.Reuse{ZipfS: 1.1, Universe: 4096},
	}
	opts := serve.Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1024}

	uncached, err := serve.Simulate(backend, opts, load)
	if err != nil {
		log.Fatal(err)
	}
	cached := opts
	cached.Cache = serve.CacheOptions{Capacity: 1024}
	rep, err := serve.Simulate(backend, cached, load)
	if err != nil {
		log.Fatal(err)
	}
	hstar := 1 - uncached.CapacityPerSec/load.Rate
	fmt.Printf("offered %.0f/s against a %.0f/s no-cache capacity bound -> break-even hit rate h* = 1 - C/λ = %.0f%%\n\n",
		load.Rate, uncached.CapacityPerSec, 100*hstar)
	fmt.Printf("%-10s %10s %10s %12s %12s %10s\n", "", "hit rate", "rejected", "throughput", "p99", "evictions")
	fmt.Printf("%-10s %10s %10d %10.1f/s %12v %10s\n", "uncached", "-",
		uncached.Rejected, uncached.ThroughputPerSec, uncached.P99.Round(time.Millisecond), "-")
	fmt.Printf("%-10s %9.1f%% %10d %10.1f/s %12v %10d\n", "cached", 100*rep.CacheHitRate,
		rep.Rejected, rep.ThroughputPerSec, rep.P99.Round(time.Millisecond), rep.CacheEvictions)
	if rep.ThroughputPerSec > uncached.CapacityPerSec {
		fmt.Printf("\nthe cache is free capacity: %.1f/s sustained is %.1f%% above what the replica groups alone can serve\n",
			rep.ThroughputPerSec, 100*(rep.ThroughputPerSec/uncached.CapacityPerSec-1))
	}

	// --- Part 2: the break-even frontier ------------------------------
	fmt.Println()
	points, err := serve.SweepCache(backend, opts, load, []int{0, 64, 256, 1024, 4096})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(serve.SweepCacheTable(points))

	// --- Part 3: the cache on the bit-exact server, hits never wrong --
	small := neuralcache.SmallCNN()
	small.InitWeights(7)
	srv, err := serve.NewServer(serve.NewBitExactBackend(sys, small), serve.Options{
		MaxBatch: 4, MaxLinger: time.Millisecond,
		Cache: serve.CacheOptions{Capacity: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	input := func(key int) *neuralcache.Tensor {
		h, w, c := small.InputShape()
		in := neuralcache.NewTensor(h, w, c, 1.0/255)
		r := rand.New(rand.NewSource(int64(100 + key)))
		for j := range in.Data {
			in.Data[j] = uint8(r.Intn(256))
		}
		return in
	}
	hits := 0
	for i := 0; i < 24; i++ {
		key := i % 8 // every input repeats three times
		ch, err := srv.TrySubmit(context.Background(), input(key))
		if err != nil {
			log.Fatal(err)
		}
		resp := <-ch
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		direct, err := sys.Run(small, input(key))
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(resp.Result.Output.Data, direct.Output.Data) {
			log.Fatalf("request %d: served output diverged from direct Run", resp.ID)
		}
		if resp.CacheHit {
			hits++
		}
	}
	st := srv.Stats()
	fmt.Printf("bit-exact cache: %d/%d requests served from the cache (%d inserts), every response byte-identical to direct Run\n",
		hits, st.Submitted, st.CacheInserts)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
