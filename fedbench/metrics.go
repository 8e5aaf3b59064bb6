package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/cursor"
	"repro/internal/gossip"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/query"
)

// counters is one reading of every counter the program exports, summed over
// the federation's ORBs and nodes, plus the process's CPU and runtime
// counters.
type counters struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	orb     orb.StatsSnapshot
	md      mdcache.StatsSnapshot
	planner query.PlannerStats
	relHits uint64 // relational plan cache
	relMiss uint64
	cursor  cursor.StatsSnapshot
	gossip  gossip.Stats
	allocs  uint64  // heap bytes allocated
	gcCPU   float64 // seconds
	allCPU  float64 // seconds
	sched   *metrics.Float64Histogram
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readCounters(fd *fed) counters {
	c := counters{at: time.Now(), cpu: processCPU()}
	for _, p := range products {
		s := fd.orbs[p].Stats.Snapshot()
		c.orb.IIOPCalls += s.IIOPCalls
		c.orb.ColocatedCalls += s.ColocatedCalls
		c.orb.BytesSent += s.BytesSent
		c.orb.FragmentsSent += s.FragmentsSent
		c.orb.Retries += s.Retries
		c.orb.SysExceptions += s.SysExceptions
		c.orb.MaxInFlight = max(c.orb.MaxInFlight, s.MaxInFlight)
	}
	for _, n := range fd.nodes {
		if n.MDCache != nil {
			s := n.MDCache.Snapshot()
			c.md.Hits += s.Hits
			c.md.NegHits += s.NegHits
			c.md.Misses += s.Misses
			c.md.Coalesced += s.Coalesced
			c.md.Evictions += s.Evictions
			c.md.Invalidations += s.Invalidations
			c.md.Revalidations += s.Revalidations
		}
		ps := n.Processor.PlannerStats()
		c.planner.Plans += ps.Plans
		c.planner.PlanCacheHits += ps.PlanCacheHits
		c.planner.FragmentsPushed += ps.FragmentsPushed
		c.planner.FragmentsCompensated += ps.FragmentsCompensated
		c.planner.EarlyTerminations += ps.EarlyTerminations
		c.planner.RowsMoved += ps.RowsMoved
		c.planner.RowsDelivered += ps.RowsDelivered
		c.planner.KeysPushed += ps.KeysPushed
		c.planner.ProbeRowsPruned += ps.ProbeRowsPruned
		c.planner.RelayShards += ps.RelayShards
		c.planner.PeakMergeBuffered = max(c.planner.PeakMergeBuffered, ps.PeakMergeBuffered)
		if n.RelDB != nil {
			s := n.RelDB.PlanCacheStats()
			c.relHits += s.Hits
			c.relMiss += s.Misses
		}
		c.cursor = c.cursor.Merge(n.CursorStats())
		if n.Gossip != nil {
			s := n.Gossip.Stats()
			c.gossip.Rounds += s.Rounds
			c.gossip.DigestBytes += s.DigestBytes
			c.gossip.DeltaBytes += s.DeltaBytes
			c.gossip.DeltasApplied += s.DeltasApplied
		}
	}
	metrics.Read(rtSamples)
	c.allocs = rtSamples[0].Value.Uint64()
	c.gcCPU = rtSamples[1].Value.Float64()
	c.allCPU = rtSamples[2].Value.Float64()
	h := rtSamples[3].Value.Float64Histogram()
	c.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	return c
}

// histQuantile is the q-quantile of the difference of two snapshots of one
// runtime histogram, as the upper bound of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		diff[i] = after.Counts[i] - before.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range diff {
		seen += n
		if seen >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// peakSampler records the highest live heap and goroutine count seen while
// it runs.
type peakSampler struct {
	mu         sync.Mutex
	heap       uint64
	goroutines uint64
	stop       chan struct{}
	done       chan struct{}
}

func startSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			s.mu.Lock()
			s.heap = max(s.heap, samples[0].Value.Uint64())
			s.goroutines = max(s.goroutines, samples[1].Value.Uint64())
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *peakSampler) finish() (heap, goroutines uint64) {
	close(s.stop)
	<-s.done
	return s.heap, s.goroutines
}

// quantile is the q-quantile of xs with linear interpolation between order
// statistics. It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
