// Package gateway is the reproduction's JDBC: a uniform driver/connection
// interface over heterogeneous database engines, plus the Information Source
// Interface (ISI) that exposes any connection as a CORBA servant so that a
// database can be queried through the ORB from anywhere in the federation
// (the paper's "each database is encapsulated in a CORBA server object").
package gateway

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/idl"
)

// Result is a uniform result set: column names plus rows of self-describing
// values, so results survive the trip through the ORB unchanged.
type Result struct {
	Columns      []string
	Rows         [][]idl.Any
	RowsAffected int64
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("OK, %d row(s) affected", r.RowsAffected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := renderAny(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d row(s))\n", len(r.Rows))
	return b.String()
}

func renderAny(v idl.Any) string {
	switch v.Kind {
	case idl.KindNull:
		return "NULL"
	case idl.KindString:
		return v.Str
	default:
		return v.String()
	}
}

// ToAny packs the result into one Any for transport through the ORB.
func (r *Result) ToAny() idl.Any {
	rows := make([]idl.Any, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = idl.Seq(row...)
	}
	return idl.Struct(
		idl.F("columns", idl.Strings(r.Columns)),
		idl.F("rows", idl.Seq(rows...)),
		idl.F("affected", idl.Long(r.RowsAffected)),
	)
}

// ResultFromAny unpacks a result shipped by ToAny.
func ResultFromAny(a idl.Any) (*Result, error) {
	if a.Kind != idl.KindStruct {
		return nil, fmt.Errorf("gateway: result payload is %s, not struct", a.Kind)
	}
	cols, _ := a.Get("columns")
	rowsAny, _ := a.Get("rows")
	res := &Result{Columns: cols.StringSlice(), RowsAffected: a.GetInt("affected")}
	for _, row := range rowsAny.Seq {
		res.Rows = append(res.Rows, row.Seq)
	}
	return res, nil
}

// SourceMeta describes an engine behind a connection.
type SourceMeta struct {
	Engine   string // "Oracle", "mSQL", "DB2", "Sybase", "ObjectStore", "Ontos"
	Database string // database name
	Model    string // "relational" or "object-oriented"
}

// RowIter is a pull-based iterator over a query's rows. Next returns the
// next row, or io.EOF once the result is exhausted; the returned slice is
// only valid until the following Next. Close releases any server-side
// cursor behind the iterator and must always be called (a deferred Close is
// idempotent with normal exhaustion). Iterators are not safe for concurrent
// use, like the connections that produce them.
type RowIter interface {
	// Columns names the result columns, known as soon as the iterator opens.
	Columns() []string
	// Next returns the next row or io.EOF. The context bounds one fetch
	// round trip (where the transport fetches lazily), not the whole drain.
	Next(ctx context.Context) ([]idl.Any, error)
	// Close releases the iterator and any server-side cursor behind it.
	Close() error
}

// rowsAffected is implemented by iterators that know the statement's
// affected-row count; Drain propagates it into the rebuilt Result.
type rowsAffected interface{ RowsAffected() int64 }

// Drain consumes a RowIter to exhaustion and rebuilds the whole-result
// shape. It is how the deprecated whole-result query paths delegate to the
// cursor protocol; new code should iterate instead of draining.
func Drain(ctx context.Context, it RowIter) (*Result, error) {
	defer it.Close()
	res := &Result{Columns: it.Columns()}
	if ra, ok := it.(rowsAffected); ok {
		res.RowsAffected = ra.RowsAffected()
	}
	for {
		row, err := it.Next(ctx)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
}

// sliceIter adapts a materialized Result to RowIter (in-process engines).
type sliceIter struct {
	res *Result
	pos int
}

// NewSliceIter returns a RowIter over an already-materialized result.
func NewSliceIter(res *Result) RowIter { return &sliceIter{res: res} }

func (it *sliceIter) Columns() []string   { return it.res.Columns }
func (it *sliceIter) RowsAffected() int64 { return it.res.RowsAffected }
func (it *sliceIter) Close() error        { return nil }
func (it *sliceIter) Next(context.Context) ([]idl.Any, error) {
	if it.pos >= len(it.res.Rows) {
		return nil, io.EOF
	}
	row := it.res.Rows[it.pos]
	it.pos++
	return row, nil
}

// Conn is one open connection to a database, in the shape of a JDBC
// connection: statement execution plus transaction control. Connections are
// not safe for concurrent use. Statement execution is context-first: the
// context carries trace parentage across ORB hops (remote ISI connections)
// and its deadline/cancellation bounds the statement; in-process drivers may
// ignore it.
type Conn interface {
	// Query runs a read-only query in the engine's native language (SQL for
	// relational engines, OQL for object-oriented ones) and materializes the
	// whole result. Prefer QueryCursor for results that may be large: Query
	// buffers every row at both ends of the wire.
	Query(ctx context.Context, q string) (*Result, error)
	// QueryCursor runs a read-only query and returns a pull-based iterator
	// over its rows, moving at most batchSize rows per round trip where the
	// transport streams (batchSize <= 0 fetches everything in one batch).
	// The caller must Close the iterator.
	QueryCursor(ctx context.Context, q string, batchSize int) (RowIter, error)
	// Exec runs any statement.
	Exec(ctx context.Context, q string) (*Result, error)
	// Begin/Commit/Rollback control a transaction where the engine supports
	// them.
	Begin() error
	Commit() error
	Rollback() error
	// Meta describes the engine.
	Meta() SourceMeta
	// Tables lists the queryable containers (tables or classes).
	Tables() []string
	Close() error
}

// Driver creates connections for one DSN scheme.
type Driver interface {
	Open(name string) (Conn, error)
}

// Manager is the DriverManager: a registry of drivers keyed by scheme. DSNs
// have the form "scheme://name", e.g. "oracle://RBH" or
// "objectstore://codb-RBH".
type Manager struct {
	mu      sync.RWMutex
	drivers map[string]Driver
}

// NewManager returns an empty driver manager.
func NewManager() *Manager {
	return &Manager{drivers: make(map[string]Driver)}
}

// Register installs a driver for a scheme (lower-cased).
func (m *Manager) Register(scheme string, d Driver) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drivers[strings.ToLower(scheme)] = d
}

// Schemes lists registered schemes, sorted.
func (m *Manager) Schemes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.drivers))
	for s := range m.drivers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Open parses a DSN and opens a connection through the matching driver.
func (m *Manager) Open(dsn string) (Conn, error) {
	scheme, name, ok := strings.Cut(dsn, "://")
	if !ok {
		return nil, fmt.Errorf("gateway: malformed DSN %q (want scheme://name)", dsn)
	}
	m.mu.RLock()
	d, found := m.drivers[strings.ToLower(scheme)]
	m.mu.RUnlock()
	if !found {
		return nil, fmt.Errorf("gateway: no driver for scheme %q", scheme)
	}
	conn, err := d.Open(name)
	if err != nil {
		return nil, fmt.Errorf("gateway: open %s: %w", dsn, err)
	}
	return conn, nil
}
