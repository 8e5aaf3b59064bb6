// Command fedbench is the federation benchmark: it boots an in-process
// WebFINDIT federation over loopback IIOP between the three ORB products,
// drives seeded WebTassili load through query.Session on home nodes, checks
// every answer against the generator's own data, and prints every metric by
// name and unit. See README.md for the workloads, metrics and their sources.
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/trace"
)

// workloadConfig fixes what a workload offers and how it is warmed.
type workloadConfig struct {
	rate    float64 // open-loop offered rate, ops/s
	p99Lim  float64 // read p99 limit for the open loop, ms
	warmOps int     // warm-up ops run after boot, outside every timed phase
}

var workloads = map[string]workloadConfig{
	wlScan:      {rate: 40, p99Lim: 100, warmOps: 120},
	wlDiscovery: {rate: 70, p99Lim: 100, warmOps: 600},
	wlChurn:     {rate: 60, p99Lim: 60, warmOps: 120},
}

// setupReps is how many times a run boots the federation; setup_s is the
// median. All but the last federation are torn down and checked.
const setupReps = 5

// cycles is how many open-loop/closed-loop slice pairs a run alternates.
const cycles = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", wlScan, "scan, discovery or churn")
	seed := flag.Int64("seed", 1, "seed for datasets and op streams")
	seconds := flag.Int("seconds", 10, "seconds of measured load")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "fedbench: bad --workload %q or --seconds %d\n", *workload, *seconds)
		os.Exit(2)
	}
	d, err := newDataset(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(2)
	}
	b := &bench{workload: *workload, seed: *seed, cfg: cfg, d: d,
		dur: time.Duration(*seconds) * time.Second, baseline: runtime.NumGoroutine()}
	var res *result
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runPlain()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	workload string
	seed     int64
	cfg      workloadConfig
	dur      time.Duration
	baseline int      // goroutines before any federation exists
	d        *dataset // generated once; every boot seeds the same data
}

// workers is the load generator's concurrency: 2, the CPUs the benchmark
// was written for (the open loop needs one worker for writes and one for
// reads).
const workers = 2

// boot builds the federation and warms it: every cache the measured phases
// rely on is filled before any clock starts.
func (b *bench) boot() (*fed, error) {
	fd, err := buildFed(b.d)
	if err != nil {
		return nil, err
	}
	r := &runner{fd: fd}
	warm := newStream(b.d, b.seed, true)
	for i := 0; i < b.cfg.warmOps; i++ {
		op := warm.next()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err := r.exec(ctx, op)
		cancel()
		if err != nil {
			fd.close()
			return nil, fmt.Errorf("warm-up %s: %w", op.Text, err)
		}
	}
	return fd, nil
}

// bootTimed boots setupReps federations, tearing down all but the last, and
// returns the last with the median boot time.
func (b *bench) bootTimed() (*fed, float64, error) {
	var times []float64
	for {
		t0 := time.Now()
		fd, err := b.boot()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupReps {
			return fd, median(times), nil
		}
		if err := fd.teardown(b.baseline); err != nil {
			return nil, 0, err
		}
	}
}

func wrongOf(ps ...*phase) error {
	for _, p := range ps {
		if p.wrong != nil {
			return p.wrong
		}
	}
	return nil
}

// runPlain is the untraced run: it reports the end-to-end metrics.
func (b *bench) runPlain() (*result, error) {
	fd, setup, err := b.bootTimed()
	if err != nil {
		return nil, err
	}
	r := &runner{fd: fd}
	next := lockedNext(newStream(b.d, b.seed, false))
	ctx := context.Background()

	// The loops alternate in slices, so each samples the whole run and a
	// slow spell of the host lands on both instead of on one.
	sampler := startSampler()
	open, closed := &phase{}, &phase{}
	for c := 0; c < cycles; c++ {
		open.add(openLoop(ctx, b.cfg.rate, b.dur*3/4/cycles, workers, next, r.exec, nil))
		closed.add(closedLoop(ctx, b.dur/4/cycles, workers, next, r.exec))
	}
	heap, _ := sampler.finish()
	if err := fd.teardown(b.baseline); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: open.attempted + closed.attempted,
		Failed: open.failed + closed.failed, Metrics: map[string]metric{}}
	if w := wrongOf(open, closed); w != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", w)
		res.Correct = false
		return res, nil
	}
	reads, writes := open.latencies(false), open.latencies(true)
	if len(reads) == 0 || len(writes) == 0 || len(closed.qps) == 0 {
		return nil, errors.New("a phase completed no reads, writes or ops")
	}
	p99 := quantile(reads, 0.99)
	verdict := "met"
	if p99 > b.cfg.p99Lim {
		verdict = "missed"
	}
	fmt.Fprintf(os.Stderr, "fedbench: %s open loop %d reads, %d writes at %.0f ops/s, read p99 limit %.0f ms %s; closed loop %d ops\n",
		b.workload, len(reads), len(writes), b.cfg.rate, b.cfg.p99Lim, verdict, closed.completed)
	res.Metrics = map[string]metric{
		"setup_s":         {setup, "s"},
		"p50_ms":          {median(reads), "ms"},
		"write_p50_ms":    {median(writes), "ms"},
		"throughput_qps":  {median(closed.qps), "1/s"},
		"cpu_ms_per_op":   {median(closed.cpuMS), "ms"},
		"alloc_kb_per_op": {median(closed.allocKB), "KiB"},
		"heap_peak_mb":    {float64(heap) / (1 << 20), "MiB"},
	}
	return res, nil
}

// traceCapacity bounds the traced phase's span recorder; dispatch stops
// before the ring could wrap and lose the start of a trace.
const traceCapacity = 1 << 17

// runTraced is the traced run: an untraced open-loop phase read through the
// program's counters, then the same load with ORB tracing on, read through
// the span tree. It reports the per-layer metrics.
func (b *bench) runTraced() (*result, error) {
	fd, err := b.boot()
	if err != nil {
		return nil, err
	}
	r := &runner{fd: fd}
	next := lockedNext(newStream(b.d, b.seed, false))
	ctx := context.Background()

	sampler := startSampler()
	before := readCounters(fd)
	plain := openLoop(ctx, b.cfg.rate, b.dur/2, workers, next, r.exec, nil)
	if err := fd.drained(3 * time.Second); err != nil {
		return nil, err
	}
	after := readCounters(fd)
	_, goroutines := sampler.finish()

	tracer := trace.New(trace.Options{Capacity: traceCapacity})
	for _, p := range products {
		fd.orbs[p].EnableTracing(tracer)
	}
	tr := &runner{fd: fd, tracer: tracer}
	full := func() bool {
		var n int64
		for _, op := range tracer.Metrics() {
			n += op.Count
		}
		return n > traceCapacity*6/10
	}
	traced := openLoop(ctx, b.cfg.rate, b.dur/2, workers, next, tr.exec, full)
	if err := fd.drained(3 * time.Second); err != nil {
		return nil, err
	}
	spans := analyzeSpans(tracer.Spans())
	openCursors := fd.nodes[0].CursorStats().Open
	for _, n := range fd.nodes[1:] {
		openCursors += n.CursorStats().Open
	}
	if err := fd.teardown(b.baseline); err != nil {
		return nil, err
	}
	if w := wrongOf(plain, traced); w != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", w)
		return &result{Correct: false, Attempted: plain.attempted + traced.attempted,
			Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}, nil
	}
	m := layerMetrics(before, after, plain, traced, spans, r)
	m["runtime.goroutines_peak"] = metric{float64(goroutines), "count"}
	m["cursor.open_after_run"] = metric{float64(openCursors), "count"}
	printSplit(b.workload, spans)
	return &result{Correct: true, Attempted: plain.attempted + traced.attempted,
		Failed: plain.failed + traced.failed, Metrics: m}, nil
}

func layerMetrics(before, after counters, plain, traced *phase, sp *spanStats, r *runner) map[string]metric {
	ops := float64(plain.attempted)
	secs := after.at.Sub(before.at).Seconds()
	d := func(a, b int64) float64 { return float64(a - b) }
	md := after.md
	bm := before.md
	lookups := d(md.Hits, bm.Hits) + d(md.NegHits, bm.NegHits) + d(md.Misses, bm.Misses) + d(md.Coalesced, bm.Coalesced)
	pl, bp := after.planner, before.planner
	pushed := d(pl.FragmentsPushed, bp.FragmentsPushed)
	comp := d(pl.FragmentsCompensated, bp.FragmentsCompensated)
	relLookups := float64(after.relHits-before.relHits) + float64(after.relMiss-before.relMiss)
	plainP50 := median(plain.latencies(false))
	tracedP50 := median(traced.latencies(false))
	m := map[string]metric{
		"p99_ms":       {quantile(plain.latencies(false), 0.99), "ms"},
		"write_p99_ms": {quantile(plain.latencies(true), 0.99), "ms"},
		"wtl.parse_us": {ratio(float64(r.parseNS.Load())/1e3, float64(r.parses.Load())), "us"},

		"mdcache.hit_ratio":            {ratio(d(md.Hits, bm.Hits)+d(md.NegHits, bm.NegHits), lookups), "ratio"},
		"mdcache.evictions_per_op":     {d(md.Evictions, bm.Evictions) / ops, "count"},
		"mdcache.invalidations_per_op": {d(md.Invalidations, bm.Invalidations) / ops, "count"},
		"mdcache.revalidations_per_op": {d(md.Revalidations, bm.Revalidations) / ops, "count"},
		"mdcache.coalesced_ratio":      {ratio(d(md.Coalesced, bm.Coalesced), lookups), "ratio"},

		"query.discovery_ms":        {sp.perOpMS(layerDiscovery), "ms"},
		"query.relay_shards_per_op": {d(pl.RelayShards, bp.RelayShards) / ops, "count"},

		"query.plan_hit_ratio":           {ratio(d(pl.PlanCacheHits, bp.PlanCacheHits), d(pl.Plans, bp.Plans)), "ratio"},
		"query.rows_moved_per_delivered": {ratio(d(pl.RowsMoved, bp.RowsMoved), d(pl.RowsDelivered, bp.RowsDelivered)), "ratio"},
		"query.pushed_ratio":             {ratio(pushed, pushed+comp), "ratio"},
		"query.early_term_per_op":        {d(pl.EarlyTerminations, bp.EarlyTerminations) / ops, "count"},
		"query.keys_pushed_per_op":       {d(pl.KeysPushed, bp.KeysPushed) / ops, "count"},
		"query.probe_rows_pruned_per_op": {d(pl.ProbeRowsPruned, bp.ProbeRowsPruned) / ops, "count"},
		"query.coord_self_ms":            {sp.perOpMS(layerCoord), "ms"},
		"query.member_self_ms":           {sp.perOpMS(layerMerge), "ms"},
		"query.member_ms_p50":            {median(sp.memberMS), "ms"},
		"query.member_ms_p99":            {quantile(sp.memberMS, 0.99), "ms"},
		"query.straggler_ratio":          {meanOf(sp.straggler), "ratio"},
		"query.peak_merge_rows":          {float64(pl.PeakMergeBuffered), "count"},
		"orb.iiop_calls_per_op":          {d(after.orb.IIOPCalls, before.orb.IIOPCalls) / ops, "count"},
		"orb.colocated_calls_per_op":     {d(after.orb.ColocatedCalls, before.orb.ColocatedCalls) / ops, "count"},
		"orb.bytes_per_op":               {d(after.orb.BytesSent, before.orb.BytesSent) / ops, "B"},
		"orb.fragments_per_op":           {d(after.orb.FragmentsSent, before.orb.FragmentsSent) / ops, "count"},
		"orb.client_self_ms":             {sp.perOpMS(layerORB), "ms"},
		"orb.max_in_flight":              {float64(after.orb.MaxInFlight), "count"},
		"orb.retries_per_op":             {d(after.orb.Retries, before.orb.Retries) / ops, "count"},
		"orb.sys_exceptions_per_op":      {d(after.orb.SysExceptions, before.orb.SysExceptions) / ops, "count"},
		"gateway.isi_wait_ms":            {sp.perOpMS(layerGateway), "ms"},
		"cursor.fetches_per_op":          {float64(after.cursor.Fetches-before.cursor.Fetches) / ops, "count"},
		"codb.server_ms":                 {sp.perOpMS(layerCodb), "ms"},
		"relational.exec_ms":             {sp.perOpMS(layerRel), "ms"},
		"oodb.exec_ms":                   {sp.perOpMS(layerOO), "ms"},
		"relational.write_ms":            {sp.perOpMS(layerRelWrite), "ms"},
		"relational.plan_hit_ratio":      {ratio(float64(after.relHits-before.relHits), relLookups), "ratio"},
		"gossip.rounds_per_s":            {d(after.gossip.Rounds, before.gossip.Rounds) / secs, "1/s"},
		"gossip.bytes_per_s":             {(d(after.gossip.DigestBytes, before.gossip.DigestBytes) + d(after.gossip.DeltaBytes, before.gossip.DeltaBytes)) / secs, "B/s"},
		"gossip.deltas_applied_per_s":    {d(after.gossip.DeltasApplied, before.gossip.DeltasApplied) / secs, "1/s"},
		"runtime.gc_cpu_pct":             {100 * ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU), "%"},
		"runtime.sched_p99_us":           {histQuantile(before.sched, after.sched, 0.99) * 1e6, "us"},
		"loadgen.late_p99_ms":            {quantile(plain.lateMS, 0.99), "ms"},
		"loadgen.read_samples":           {float64(len(plain.latencies(false))), "count"},
		"loadgen.failed_ratio":           {ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted)), "ratio"},
		"trace.overhead_pct":             {100 * ratio(tracedP50-plainP50, plainP50), "%"},
		"trace.unattributed_pct":         {100 * ratio(float64(sp.self[layerRoot]), float64(sp.rootTotal)), "%"},
		"trace.ops":                      {float64(sp.ops), "count"},
	}
	return m
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// printSplit writes each layer's share of traced op time to stderr.
func printSplit(workload string, sp *spanStats) {
	type share struct {
		layer string
		ms    float64
	}
	var shares []share
	for l := range sp.self {
		shares = append(shares, share{l, sp.perOpMS(l)})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].ms > shares[j].ms })
	total := float64(sp.rootTotal) / 1e6 / float64(max(sp.ops, 1))
	fmt.Fprintf(os.Stderr, "fedbench: %s self time per op over %d traced ops (%.3f ms/op):\n", workload, sp.ops, total)
	for _, s := range shares {
		fmt.Fprintf(os.Stderr, "  %-18s %8.3f ms  %5.1f%%\n", s.layer, s.ms, 100*ratio(s.ms, total))
	}
}
