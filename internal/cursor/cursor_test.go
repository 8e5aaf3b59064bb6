package cursor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/idl"
)

func items(n int) []idl.Any {
	out := make([]idl.Any, n)
	for i := range out {
		out[i] = idl.String(fmt.Sprintf("row-%03d", i))
	}
	return out
}

func TestOpenSmallResultRetainsNothing(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, first, done := tb.Open(items(3), 10)
	if !done || id != 0 {
		t.Fatalf("open = id %d, done %v", id, done)
	}
	if len(first) != 3 || tb.OpenCount() != 0 {
		t.Fatalf("first batch %d rows, %d cursors retained", len(first), tb.OpenCount())
	}
	// batch <= 0 means everything at once.
	_, first, done = tb.Open(items(5), 0)
	if !done || len(first) != 5 {
		t.Fatalf("batch 0: done %v, %d rows", done, len(first))
	}
}

func TestOpenFetchClose(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, first, done := tb.Open(items(7), 3)
	if done || id == 0 {
		t.Fatalf("open = id %d, done %v", id, done)
	}
	if len(first) != 3 || first[0].Str != "row-000" {
		t.Fatalf("first batch = %v", first)
	}
	b2, done, err := tb.Fetch(id)
	if err != nil || done || len(b2) != 3 || b2[0].Str != "row-003" {
		t.Fatalf("fetch 2 = %v, done %v, err %v", b2, done, err)
	}
	b3, done, err := tb.Fetch(id)
	if err != nil || !done || len(b3) != 1 || b3[0].Str != "row-006" {
		t.Fatalf("fetch 3 = %v, done %v, err %v", b3, done, err)
	}
	if tb.OpenCount() != 0 {
		t.Fatalf("%d cursors after exhaustion", tb.OpenCount())
	}
	if _, _, err := tb.Fetch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after exhaustion: %v", err)
	}
	tb.Close(id) // idempotent no-op

	snap := tb.Snapshot()
	if snap.Opened != 1 || snap.Fetches != 3 || snap.Closed != 1 || snap.Open != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestCloseAbandonsEarly(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, _, _ := tb.Open(items(10), 2)
	tb.Close(id)
	if tb.OpenCount() != 0 {
		t.Fatal("close left the cursor open")
	}
	if _, _, err := tb.Fetch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after close: %v", err)
	}
}

func TestOpenCap(t *testing.T) {
	tb := NewTable(2, time.Minute, nil)
	for i := 0; i < 2; i++ {
		if id, _, done := tb.Open(items(10), 2); id == 0 || done {
			t.Fatalf("open %d under the cap: id %d, done %v", i, id, done)
		}
	}
	// Past the cap the open answers with the whole result and keeps nothing.
	id, first, done := tb.Open(items(10), 2)
	if id != 0 || !done || len(first) != 10 || first[9].Str != "row-009" {
		t.Fatalf("open past cap = id %d, done %v, %d rows", id, done, len(first))
	}
	if n := tb.OpenCount(); n != 2 {
		t.Fatalf("open past cap changed the open count to %d", n)
	}
	// A small result (no cursor retained) still succeeds at the cap.
	if _, _, done := tb.Open(items(1), 2); !done {
		t.Fatalf("small open at cap: done %v", done)
	}
}

func TestIdleReaping(t *testing.T) {
	clock := time.Unix(1000, 0)
	tb := NewTable(8, time.Minute, func() time.Time { return clock })
	stale, _, _ := tb.Open(items(10), 2)
	clock = clock.Add(30 * time.Second)
	fresh, _, _ := tb.Open(items(10), 2)
	clock = clock.Add(45 * time.Second) // stale now 75s idle, fresh 45s

	if _, _, err := tb.Fetch(fresh); err != nil {
		t.Fatalf("fetch fresh: %v", err)
	}
	if _, _, err := tb.Fetch(stale); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale cursor survived the TTL: %v", err)
	}
	snap := tb.Snapshot()
	if snap.Reaped != 1 || snap.Open != 1 {
		t.Fatalf("snapshot after reap = %+v", snap)
	}

	// A fetch refreshes the idle clock.
	clock = clock.Add(45 * time.Second) // fresh last touched 45s ago
	if _, _, err := tb.Fetch(fresh); err != nil {
		t.Fatalf("refreshed cursor reaped: %v", err)
	}

	// Explicit sweep.
	clock = clock.Add(2 * time.Minute)
	if n := tb.Reap(); n != 1 {
		t.Fatalf("explicit reap = %d", n)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := StatsSnapshot{Open: 1, Opened: 2, Fetches: 3, Closed: 4, Reaped: 5}
	b := StatsSnapshot{Open: 10, Opened: 20, Fetches: 30, Closed: 40, Reaped: 50}
	got := a.Merge(b)
	want := StatsSnapshot{Open: 11, Opened: 22, Fetches: 33, Closed: 44, Reaped: 55}
	if got != want {
		t.Fatalf("merge = %+v", got)
	}
}
