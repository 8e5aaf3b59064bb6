// Package cursor implements server-side result cursors: a materialized
// sequence of pre-packed values handed out in batches over the ISI and
// co-database servant protocols (open -> id+first batch, fetch -> batch+done,
// close). Cursors are what turn one huge CORBA reply into a pull-based
// stream: the client fetches the next batch only when it has drained the
// previous one, so a slow consumer throttles the server instead of
// ballooning it.
//
// Cursors are the only way member rows and member listings cross the wire.
//
// A Table is the per-servant cursor registry. It caps how many cursors it
// holds open: past the cap, an open returns the whole result in its reply
// and keeps nothing, so server state never exceeds the cap and the caller
// still gets its answer in one round trip. It also reaps cursors idle past
// a TTL (a client that vanished mid-stream eventually costs nothing).
// Reaping is lazy — checked on every open and fetch — so the table needs no
// background goroutine and works under simulated clocks.
package cursor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idl"
)

// Defaults for a Table constructed with zero values.
const (
	DefaultMaxOpen = 32
	DefaultIdleTTL = 2 * time.Minute
)

// ErrNotFound reports a fetch or close of an unknown (possibly reaped)
// cursor ID.
var ErrNotFound = errors.New("cursor: no such cursor")

// Stats counts cursor lifecycle events; fields are atomic and safe to read
// at any time.
type Stats struct {
	Opened  atomic.Int64 // cursors opened (results not exhausted at open)
	Fetches atomic.Int64 // fetch calls answered, the open's first batch included
	Closed  atomic.Int64 // cursors removed by exhaustion or explicit close
	Reaped  atomic.Int64 // cursors removed by the idle TTL
}

// StatsSnapshot is the serializable copy of Stats plus the open gauge (the
// shape published under /debug/metrics).
type StatsSnapshot struct {
	Open    int   `json:"cursors_open"`
	Opened  int64 `json:"opened"`
	Fetches int64 `json:"fetches"`
	Closed  int64 `json:"closed"`
	Reaped  int64 `json:"reap_count"`
}

// Table is one servant's registry of open cursors. The zero value is not
// usable; see NewTable.
type Table struct {
	maxOpen int
	ttl     time.Duration
	now     func() time.Time

	mu      sync.Mutex
	nextID  int64
	cursors map[int64]*state

	stats Stats
}

type state struct {
	items   []idl.Any
	pos     int
	batch   int
	touched time.Time
}

// NewTable returns a cursor table capping open cursors at maxOpen (<=0
// selects DefaultMaxOpen) and reaping cursors idle longer than idleTTL (<=0
// selects DefaultIdleTTL). now supplies the clock (nil selects time.Now);
// deterministic tests inject a virtual one.
func NewTable(maxOpen int, idleTTL time.Duration, now func() time.Time) *Table {
	if maxOpen <= 0 {
		maxOpen = DefaultMaxOpen
	}
	if idleTTL <= 0 {
		idleTTL = DefaultIdleTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Table{maxOpen: maxOpen, ttl: idleTTL, now: now, cursors: make(map[int64]*state)}
}

// Open registers a cursor over items and returns its ID along with the first
// batch. When the first batch exhausts items, done is true, no cursor is
// retained, and id is 0: small results cost exactly one round trip and no
// server state. batch <= 0 selects the whole result in one batch, and so
// does an open with the table at its cap.
func (t *Table) Open(items []idl.Any, batch int) (id int64, first []idl.Any, done bool) {
	t.stats.Fetches.Add(1)
	if batch <= 0 || batch >= len(items) {
		return 0, items, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked()
	if len(t.cursors) >= t.maxOpen {
		return 0, items, true
	}
	t.nextID++
	id = t.nextID
	t.cursors[id] = &state{items: items, pos: batch, batch: batch, touched: t.now()}
	t.stats.Opened.Add(1)
	return id, items[:batch], false
}

// Fetch returns the cursor's next batch. done reports the cursor is
// exhausted and has been removed; fetching an unknown or reaped cursor
// returns ErrNotFound.
func (t *Table) Fetch(id int64) (batch []idl.Any, done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked()
	s, ok := t.cursors[id]
	if !ok {
		return nil, false, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	t.stats.Fetches.Add(1)
	end := s.pos + s.batch
	if end >= len(s.items) {
		end = len(s.items)
		delete(t.cursors, id)
		t.stats.Closed.Add(1)
		done = true
	} else {
		s.touched = t.now()
	}
	batch = s.items[s.pos:end]
	s.pos = end
	return batch, done, nil
}

// Close removes a cursor. Closing an unknown (already exhausted, reaped, or
// never opened) cursor is a no-op: close is how clients abandon streams
// early, and races with exhaustion are expected.
func (t *Table) Close(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cursors[id]; ok {
		delete(t.cursors, id)
		t.stats.Closed.Add(1)
	}
}

// Reap removes every cursor idle past the TTL and reports how many went.
// Open and Fetch reap lazily, so calling this is only needed for tests or
// an explicit sweep.
func (t *Table) Reap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reapLocked()
}

func (t *Table) reapLocked() int {
	cutoff := t.now().Add(-t.ttl)
	n := 0
	for id, s := range t.cursors {
		if s.touched.Before(cutoff) {
			delete(t.cursors, id)
			n++
		}
	}
	if n > 0 {
		t.stats.Reaped.Add(int64(n))
	}
	return n
}

// OpenCount reports the number of cursors currently registered.
func (t *Table) OpenCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cursors)
}

// Snapshot returns the table's counters plus the open gauge.
func (t *Table) Snapshot() StatsSnapshot {
	t.mu.Lock()
	open := len(t.cursors)
	t.mu.Unlock()
	return StatsSnapshot{
		Open:    open,
		Opened:  t.stats.Opened.Load(),
		Fetches: t.stats.Fetches.Load(),
		Closed:  t.stats.Closed.Load(),
		Reaped:  t.stats.Reaped.Load(),
	}
}

// Merge adds another snapshot into s (a node aggregates per-servant tables
// for /debug/metrics).
func (s StatsSnapshot) Merge(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Open:    s.Open + o.Open,
		Opened:  s.Opened + o.Opened,
		Fetches: s.Fetches + o.Fetches,
		Closed:  s.Closed + o.Closed,
		Reaped:  s.Reaped + o.Reaped,
	}
}
