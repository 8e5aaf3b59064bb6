package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedOps runs the open loop against a fake
// executor that stalls once, as a whole-process pause would: every op
// started before the stall ends waits for it. Each op due during the stall
// must show the rest of the stall in its due-time latency, though its own
// service time is zero; a closed loop, or a clock started at dispatch,
// would report those ops as instant.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const rate, stall = 1000.0, 60 * time.Millisecond
	var mu sync.Mutex
	var stallEnd time.Time
	n := 0
	exec := func(ctx context.Context, op *Op) (time.Time, error) {
		mu.Lock()
		n++
		if n == 50 {
			stallEnd = time.Now().Add(stall)
		}
		until := stallEnd
		mu.Unlock()
		time.Sleep(time.Until(until))
		return time.Now(), nil
	}
	d, err := newDataset(wlChurn, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(d, 1, true)
	p := openLoop(context.Background(), rate, 300*time.Millisecond, workers, s.next, exec, nil)
	if p.attempted != 300 || p.failed != 0 || len(p.lateMS) != 300 {
		t.Fatalf("attempted %d, failed %d, dispatched %d", p.attempted, p.failed, len(p.lateMS))
	}
	// Ops are due every millisecond; op 50 starts the stall at about 50ms.
	behind := 0
	for _, smp := range p.samples {
		due := float64(smp.at) / 1e6
		if due < 52 || due > 100 {
			continue
		}
		behind++
		if floor := 50 + float64(stall)/1e6 - due - 3; smp.ms < floor {
			t.Errorf("op due at %.1fms: latency %.2fms, want at least %.1fms", due, smp.ms, floor)
		}
	}
	if behind < 40 {
		t.Fatalf("only %d ops due during the stall", behind)
	}
	if late := quantile(p.lateMS, 0.99); late > 20 {
		t.Errorf("generator p99 lateness %.1fms: dispatch should not wait on the stall", late)
	}
}

// TestOpenLoopKeepsWritesInOrder checks that writes (here every op) run one
// at a time in stream order, which the spare's Join/Leave toggles rely on.
func TestOpenLoopKeepsWritesInOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	exec := func(ctx context.Context, op *Op) (time.Time, error) {
		mu.Lock()
		seen = append(seen, op.A)
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		return time.Now(), nil
	}
	i := 0
	next := func() *Op {
		i++
		return &Op{Kind: opUpdate, A: i}
	}
	openLoop(context.Background(), 5000, 40*time.Millisecond, workers, next, exec, nil)
	for k := range seen {
		if seen[k] != k+1 {
			t.Fatalf("write %d ran at position %d", seen[k], k)
		}
	}
}
