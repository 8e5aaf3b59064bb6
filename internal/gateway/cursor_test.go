package gateway

import (
	"context"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cursor"
	"repro/internal/orb"
)

// startISIPair activates an ISI servant for the RBH Oracle database and
// returns a remote connection to it plus a handle on the servant's cursor
// table, the client ORB and the engine's query count. maxOpen caps the
// servant's cursor table (0 = the cursor package default).
func startISIPair(t *testing.T, maxOpen int) (*RemoteConn, *cursorTableHandle) {
	t.Helper()
	server := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)

	drv := NewRelationalDriver("Oracle")
	if err := drv.Add(newOracleDB(t)); err != nil {
		t.Fatal(err)
	}
	local, err := drv.Open("RBH")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingConn{Conn: local}
	table := cursor.NewTable(maxOpen, 0, nil)
	ior, err := server.Activate("ISI/RBH", NewISIServantWith(counted, table))
	if err != nil {
		t.Fatal(err)
	}

	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	return NewRemoteConn(client.Resolve(ior)), &cursorTableHandle{table, client, &counted.queries}
}

type cursorTableHandle struct {
	table   interface{ OpenCount() int }
	client  *orb.ORB
	queries *atomic.Int64 // engine executions behind the servant
}

// countingConn counts the queries the engine behind a servant runs.
type countingConn struct {
	Conn
	queries atomic.Int64
}

func (c *countingConn) Query(ctx context.Context, q string) (*Result, error) {
	c.queries.Add(1)
	return c.Conn.Query(ctx, q)
}

func TestRemoteQueryCursorBatches(t *testing.T) {
	rconn, tb := startISIPair(t, 0)
	ctx := context.Background()

	it, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students ORDER BY name", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cols := it.Columns(); len(cols) != 1 || cols[0] != "name" {
		t.Fatalf("columns = %v", cols)
	}
	// 3 rows over batch 2: the open carries 2, one fetch carries the last,
	// so a cursor is retained server-side until the stream is drained.
	if tb.table.OpenCount() != 1 {
		t.Fatalf("open cursors after open = %d", tb.table.OpenCount())
	}
	var names []string
	for {
		row, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, row[0].Str)
	}
	if strings.Join(names, ",") != "J. Chen,P. Okoye,S. Weiss" {
		t.Fatalf("streamed rows = %v", names)
	}
	if tb.table.OpenCount() != 0 {
		t.Fatalf("open cursors after drain = %d", tb.table.OpenCount())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err == nil {
		t.Fatal("Next on closed iterator succeeded")
	}
}

func TestRemoteCursorCloseReleasesServer(t *testing.T) {
	rconn, tb := startISIPair(t, 0)
	ctx := context.Background()

	it, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if tb.table.OpenCount() != 1 {
		t.Fatalf("open cursors mid-stream = %d", tb.table.OpenCount())
	}
	// Abandon mid-stream: Close must reach the server and free the cursor.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if tb.table.OpenCount() != 0 {
		t.Fatalf("open cursors after early Close = %d", tb.table.OpenCount())
	}
}

func TestRemoteQueryDelegatesThroughCursor(t *testing.T) {
	rconn, tb := startISIPair(t, 0)
	res, err := rconn.Query(context.Background(), "SELECT name FROM medical_students WHERE year > 4 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "P. Okoye" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Batch 0 means the whole result travelled in the open reply: no server
	// cursor was ever retained.
	if tb.table.OpenCount() != 0 {
		t.Fatalf("whole-result query retained %d cursors", tb.table.OpenCount())
	}
	// Engine errors still surface with the engine's message.
	if _, err := rconn.Query(context.Background(), "SELECT * FROM no_such_table"); err == nil ||
		!strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("engine error = %v", err)
	}
}

func TestRemoteCursorCapFallsBack(t *testing.T) {
	rconn, tb := startISIPair(t, 1)
	ctx := context.Background()

	// Hold the only cursor slot open.
	held, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if tb.table.OpenCount() != 1 {
		t.Fatalf("open cursors = %d", tb.table.OpenCount())
	}

	// The next open hits the cap; the server answers with the whole result
	// in the open reply and the caller still gets every row.
	calls, queries := tb.client.Stats.IIOPCalls.Load(), tb.queries.Load()
	it, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students ORDER BY name", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := tb.client.Stats.IIOPCalls.Load() - calls; d != 1 {
		t.Fatalf("open past the cap cost %d IIOP calls, want 1", d)
	}
	if d := tb.queries.Load() - queries; d != 1 {
		t.Fatalf("open past the cap ran the query %d times, want 1", d)
	}
	res, err := Drain(ctx, it)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("fallback drain = %+v, %v", res, err)
	}
	if tb.table.OpenCount() != 1 {
		t.Fatalf("fallback opened a cursor: %d", tb.table.OpenCount())
	}
}

// TestLocalQueryCursorMatchesQuery covers the in-process drivers' cursors:
// with no wire to stream over, QueryCursor iterates the materialized result,
// so a drain must equal Query and engine errors must surface at open.
func TestLocalQueryCursorMatchesQuery(t *testing.T) {
	rel := NewRelationalDriver("Oracle")
	if err := rel.Add(newOracleDB(t)); err != nil {
		t.Fatal(err)
	}
	oo := NewObjectDriver("ObjectStore")
	oo.Add(newCoDB(t))
	ctx := context.Background()
	for _, tc := range []struct {
		drv  Driver
		name string
		q    string
	}{
		{rel, "RBH", "SELECT name FROM medical_students ORDER BY name"},
		{oo, "codb-RBH", "SELECT Name, Field FROM Research WHERE Field = 'oncology'"},
	} {
		conn, err := tc.drv.Open(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := conn.Query(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		it, err := conn.QueryCursor(ctx, tc.q, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(ctx, it)
		if err != nil {
			t.Fatal(err)
		}
		if got.Format() != want.Format() {
			t.Fatalf("%s: cursor drain differs from Query:\n%s\nwant:\n%s", tc.name, got.Format(), want.Format())
		}
		if _, err := it.Next(ctx); err != io.EOF {
			t.Fatalf("%s: Next after drain = %v, want io.EOF", tc.name, err)
		}
		if _, err := conn.QueryCursor(ctx, "SELECT * FROM no_such_table", 1); err == nil {
			t.Fatalf("%s: cursor over a missing table opened", tc.name)
		}
	}
}
