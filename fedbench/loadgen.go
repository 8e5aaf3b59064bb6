package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout bounds one op from its due time, so a backlog cannot keep a
// phase alive.
const opTimeout = 5 * time.Second

// windows is how many equal time windows each closed-loop slice is cut
// into. Throughput, CPU and allocation are computed per window, and a run
// reports the median window over all its slices.
const windows = 2

// execFunc runs one op and reports when the program's answer arrived (before
// the benchmark checks it) and whether the op failed. A *wrongAnswer error
// fails the whole run.
type execFunc func(ctx context.Context, op *Op) (time.Time, error)

// sample is one finished op: when it was due (open loop) or started (closed
// loop), relative to the phase start, and its latency.
type sample struct {
	at    time.Duration
	ms    float64
	write bool
}

// mark is a reading taken at a closed-loop window boundary.
type mark struct {
	at        time.Duration
	completed int64
	cpu       time.Duration
	allocs    uint64
}

// phase is the outcome of one or more timed slices of the same loop.
type phase struct {
	samples   []sample
	lateMS    []float64 // how late the generator dispatched each op
	qps       []float64 // closed loop, per window: ops per second
	cpuMS     []float64 // closed loop, per window: process CPU ms per op
	allocKB   []float64 // closed loop, per window: heap KiB allocated per op
	attempted int
	failed    int
	completed int
	wrong     error
}

// add folds another slice of the same loop into p.
func (p *phase) add(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.lateMS = append(p.lateMS, q.lateMS...)
	p.qps = append(p.qps, q.qps...)
	p.cpuMS = append(p.cpuMS, q.cpuMS...)
	p.allocKB = append(p.allocKB, q.allocKB...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.completed += q.completed
	if p.wrong == nil {
		p.wrong = q.wrong
	}
}

func (p *phase) record(op *Op, at, lat time.Duration, err error) {
	p.attempted++
	p.samples = append(p.samples, sample{at: at, ms: float64(lat) / 1e6, write: op.Kind.write()})
	var w *wrongAnswer
	switch {
	case errors.As(err, &w):
		p.failed++
		if p.wrong == nil {
			p.wrong = err
		}
	case err != nil:
		p.failed++
	default:
		p.completed++
	}
}

// latencies returns the read or write latencies, in ms.
func (p *phase) latencies(write bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.write == write {
			out = append(out, s.ms)
		}
	}
	return out
}

// openLoop offers ops at a fixed rate for dur, regardless of how fast they
// complete: op i is due at start + i/rate. Ops queue for `workers` workers
// (at least 2): worker 0 takes a pending write before any read, so writes
// wait for at most one read in progress rather than behind the read backlog,
// and it runs writes one at a time in stream order; the other workers take
// reads only. Each op's latency is measured from its due time, so a stall is
// charged to every op queued behind it. stop, when set, ends dispatch early
// (the traced phase uses it to keep its spans within the recorder).
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int,
	next func() *Op, exec execFunc, stop func() bool) *phase {
	type job struct {
		op  *Op
		due time.Time
	}
	total := int(rate * dur.Seconds())
	// Sized to the whole phase so the dispatcher never blocks on a busy
	// system: the lateness it reports is its own, not the queue's.
	reads, writes := make(chan job, total), make(chan job, total)
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	run := func(j job) {
		// An op dequeued past its deadline still runs, on an expired
		// context, so it fails fast but keeps its place in the spare's
		// toggle order.
		octx, cancel := context.WithDeadline(ctx, j.due.Add(opTimeout))
		done, err := exec(octx, j.op)
		cancel()
		mu.Lock()
		p.record(j.op, j.due.Sub(start), done.Sub(j.due), err)
		mu.Unlock()
	}
	wg.Add(workers)
	go func() {
		defer wg.Done()
		rq, wq := reads, writes
		for rq != nil || wq != nil {
			select {
			case j, ok := <-wq:
				if ok {
					run(j)
				} else {
					wq = nil
				}
				continue
			default:
			}
			select {
			case j, ok := <-wq:
				if ok {
					run(j)
				} else {
					wq = nil
				}
			case j, ok := <-rq:
				if ok {
					run(j)
				} else {
					rq = nil
				}
			}
		}
	}()
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range reads {
				run(j)
			}
		}()
	}
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop != nil && i%16 == 0 && stop() {
			break
		}
		op := next()
		late := time.Since(due)
		mu.Lock()
		p.lateMS = append(p.lateMS, float64(late)/1e6)
		mu.Unlock()
		if op.Kind.write() {
			writes <- job{op, due}
		} else {
			reads <- job{op, due}
		}
	}
	close(reads)
	close(writes)
	wg.Wait()
	return p
}

// closedLoop runs `sessions` callers that each issue their next op only
// when the previous one has returned, for dur. At every window boundary it
// reads the ops completed and the process CPU and heap allocation so far,
// and records each window's rates.
func closedLoop(ctx context.Context, dur time.Duration, sessions int, next func() *Op, exec execFunc) *phase {
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var stopped atomic.Bool
	var completed atomic.Int64
	start := time.Now()
	markNow := func() mark {
		return mark{at: time.Since(start), completed: completed.Load(), cpu: processCPU(), allocs: heapAllocs()}
	}
	prev := markNow()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				op := next()
				t0 := time.Now()
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				done, err := exec(octx, op)
				cancel()
				completed.Add(1)
				mu.Lock()
				p.record(op, t0.Sub(start), done.Sub(t0), err)
				mu.Unlock()
			}
		}()
	}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(w) / windows)))
		m := markNow()
		if ops := float64(m.completed - prev.completed); ops > 0 {
			p.qps = append(p.qps, ops/(m.at-prev.at).Seconds())
			p.cpuMS = append(p.cpuMS, float64(m.cpu-prev.cpu)/1e6/ops)
			p.allocKB = append(p.allocKB, float64(m.allocs-prev.allocs)/1024/ops)
		}
		prev = m
	}
	stopped.Store(true)
	wg.Wait()
	return p
}

// lockedNext makes a stream safe for several callers; ops still leave it in
// stream order.
func lockedNext(s *stream) func() *Op {
	var mu sync.Mutex
	return func() *Op {
		mu.Lock()
		defer mu.Unlock()
		return s.next()
	}
}
