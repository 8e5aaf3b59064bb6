package gateway

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cursor"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/trace"
)

// ISIIDL is the Information Source Interface: the CORBA face of one
// database. It is the object the paper's data layer exposes per source
// ("an information source interface provides access to a specific database
// server ... delivering requests from the communication layer and retrieving
// results from this database").
var ISIIDL = idl.MustParse(`
module WebFINDIT {
    interface ISI {
        any exec(in string q);
        any meta();
        sequence<any> tables();
        any open_cursor(in string q, in long long batch);
        any fetch_cursor(in long long id);
        void close_cursor(in long long id);
    };
};
`)[0]

// ISIServantOptions tune the servant's cursor table; the zero value selects
// the cursor package defaults.
type ISIServantOptions struct {
	CursorMaxOpen int              // per-connection open-cursor cap
	CursorIdleTTL time.Duration    // idle reap threshold
	Clock         func() time.Time // nil = time.Now (simulations inject one)
}

// NewISIServant wraps a connection in an ISI servant with default cursor
// options. Invocations are serialised with a mutex because gateway
// connections, like JDBC connections, are single-threaded. open_cursor and
// exec open a per-driver timing span ("isi.cursor:<engine>"), so the time a
// source's engine spends on each statement is visible in the trace of the
// query that reached it.
func NewISIServant(conn Conn) orb.Servant {
	s, _ := NewISIServantWith(conn, ISIServantOptions{})
	return s
}

// NewISIServantWith is NewISIServant with cursor options; it also returns
// the servant's cursor table so the node can publish its stats.
func NewISIServantWith(conn Conn, opts ISIServantOptions) (orb.Servant, *cursor.Table) {
	var mu sync.Mutex
	meta := conn.Meta()
	cursors := cursor.NewTable(opts.CursorMaxOpen, opts.CursorIdleTTL, opts.Clock)
	h := orb.NewHandler(ISIIDL)
	h.OnCtx("open_cursor", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		ctx, sp := trace.StartSpan(ctx, "isi.cursor:"+meta.Engine)
		sp.SetAttr("database", meta.Database)
		res, err := conn.Query(ctx, args[0].Str)
		sp.End(err)
		if err != nil {
			return idl.Null(), &orb.UserException{Name: "QueryError", Message: err.Error()}
		}
		items := make([]idl.Any, len(res.Rows))
		for i, row := range res.Rows {
			items[i] = idl.Seq(row...)
		}
		id, first, done := cursors.Open(items, int(args[1].Int))
		return idl.Struct(
			idl.F("id", idl.Long(id)),
			idl.F("columns", idl.Strings(res.Columns)),
			idl.F("affected", idl.Long(res.RowsAffected)),
			idl.F("rows", idl.Seq(first...)),
			idl.F("done", idl.Bool(done)),
		), nil
	})
	h.On("fetch_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		batch, done, err := cursors.Fetch(args[0].Int)
		if err != nil {
			return idl.Null(), &orb.UserException{Name: "CursorError", Message: err.Error()}
		}
		return idl.Struct(
			idl.F("rows", idl.Seq(batch...)),
			idl.F("done", idl.Bool(done)),
		), nil
	})
	h.On("close_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		cursors.Close(args[0].Int)
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.OnCtx("exec", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		ctx, sp := trace.StartSpan(ctx, "isi.exec:"+meta.Engine)
		sp.SetAttr("database", meta.Database)
		res, err := conn.Exec(ctx, args[0].Str)
		sp.End(err)
		if err != nil {
			return idl.Null(), &orb.UserException{Name: "ExecError", Message: err.Error()}
		}
		return res.ToAny(), nil
	})
	h.On("meta", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		m := conn.Meta()
		return idl.Struct(
			idl.F("engine", idl.String(m.Engine)),
			idl.F("database", idl.String(m.Database)),
			idl.F("model", idl.String(m.Model)),
		), nil
	})
	h.On("tables", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		return idl.Strings(conn.Tables()), nil
	})
	return h, cursors
}

// RemoteConn is a gateway connection whose engine lives behind an ISI
// servant reachable through the ORB. It lets the federation treat remote
// sources exactly like local ones.
type RemoteConn struct {
	ref    *orb.ObjectRef
	closed bool
}

// NewRemoteConn wraps an ISI object reference.
func NewRemoteConn(ref *orb.ObjectRef) *RemoteConn { return &RemoteConn{ref: ref} }

func (c *RemoteConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: remote connection is closed")
	}
	return nil
}

// Query implements Conn: the context travels through the ORB hop, so the
// remote ISI's driver span joins the caller's trace and the deadline bounds
// the exchange. Queries are idempotent, so transport failures retry under the
// client ORB's retry policy.
//
// It delegates to QueryCursor (batch 0: the whole result in the open round
// trip, so the cost profile is unchanged) and drains the iterator. Prefer
// QueryCursor for results that may be large.
func (c *RemoteConn) Query(ctx context.Context, q string) (*Result, error) {
	it, err := c.QueryCursor(ctx, q, 0)
	if err != nil {
		return nil, err
	}
	return Drain(ctx, it)
}

// QueryCursor implements Conn over the ISI cursor protocol: open_cursor runs
// the query and returns the first batch (a small result costs one round trip
// and leaves no server state), fetch_cursor pulls subsequent batches on
// demand, close_cursor releases an abandoned stream. A server at its cursor
// cap answers the open with the whole result and done set, so that case
// costs the same one round trip as a small result.
func (c *RemoteConn) QueryCursor(ctx context.Context, q string, batchSize int) (RowIter, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	a, err := c.ref.InvokeIdempotent(ctx, "open_cursor", idl.String(q), idl.Long(int64(batchSize)))
	if err != nil {
		return nil, remapISIError(err)
	}
	if a.Kind != idl.KindStruct {
		return nil, fmt.Errorf("gateway: open_cursor reply is %s, not struct", a.Kind)
	}
	rows, _ := a.Get("rows")
	done, _ := a.Get("done")
	cols, _ := a.Get("columns")
	return &remoteCursorIter{
		conn:     c,
		id:       a.GetInt("id"),
		cols:     cols.StringSlice(),
		affected: a.GetInt("affected"),
		buf:      rows.Seq,
		done:     done.Bool,
	}, nil
}

// remoteCursorIter pulls batches from a server-side ISI cursor. One batch is
// buffered at a time; the next fetch is only issued once the buffer drains,
// which is what makes the consumer's pace the producer's pace.
type remoteCursorIter struct {
	conn     *RemoteConn
	id       int64
	cols     []string
	affected int64
	buf      []idl.Any // packed rows (each a Seq) of the current batch
	pos      int
	done     bool // server reported the cursor exhausted (and removed it)
	closed   bool
}

func (it *remoteCursorIter) Columns() []string   { return it.cols }
func (it *remoteCursorIter) RowsAffected() int64 { return it.affected }

func (it *remoteCursorIter) Next(ctx context.Context) ([]idl.Any, error) {
	if it.closed {
		return nil, fmt.Errorf("gateway: cursor iterator is closed")
	}
	for it.pos >= len(it.buf) {
		if it.done {
			return nil, io.EOF
		}
		a, err := it.conn.ref.InvokeIdempotent(ctx, "fetch_cursor", idl.Long(it.id))
		if err != nil {
			// The fetch failed (cursor reaped, member died, ctx over): the
			// server-side cursor may still exist, so Close still tries.
			return nil, remapISIError(err)
		}
		rows, _ := a.Get("rows")
		done, _ := a.Get("done")
		it.buf, it.pos, it.done = rows.Seq, 0, done.Bool
	}
	row := it.buf[it.pos]
	it.pos++
	return row.Seq, nil
}

// Close releases the server-side cursor. It is detached from the caller's
// context on purpose: cancelling a stream (LIMIT satisfied, Rows.Close) is
// exactly when the close RPC must still go out.
func (it *remoteCursorIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	if it.done || it.id == 0 {
		return nil // exhausted cursors are already gone server-side
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeCursorTimeout)
	defer cancel()
	_, err := it.conn.ref.InvokeIdempotent(ctx, "close_cursor", idl.Long(it.id))
	return err
}

// closeCursorTimeout bounds the detached close_cursor round trip. Losing the
// race just means the idle reaper collects the cursor later.
const closeCursorTimeout = 2 * time.Second

// Exec implements Conn. Statements may mutate, so they are never retried
// transparently.
func (c *RemoteConn) Exec(ctx context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	a, err := c.ref.InvokeCtx(ctx, "exec", idl.String(q))
	if err != nil {
		return nil, remapISIError(err)
	}
	return ResultFromAny(a)
}

// Begin is unsupported across the ISI boundary (as in the paper's prototype,
// remote access is per-statement).
func (c *RemoteConn) Begin() error {
	return fmt.Errorf("gateway: remote connections do not support transactions")
}

// Commit implements Conn.
func (c *RemoteConn) Commit() error { return c.Begin() }

// Rollback implements Conn.
func (c *RemoteConn) Rollback() error { return c.Begin() }

// Meta implements Conn by asking the remote side.
func (c *RemoteConn) Meta() SourceMeta {
	a, err := c.ref.Invoke("meta")
	if err != nil {
		return SourceMeta{Engine: "unreachable"}
	}
	return SourceMeta{
		Engine:   a.GetString("engine"),
		Database: a.GetString("database"),
		Model:    a.GetString("model"),
	}
}

// Tables implements Conn by asking the remote side.
func (c *RemoteConn) Tables() []string {
	a, err := c.ref.Invoke("tables")
	if err != nil {
		return nil
	}
	return a.StringSlice()
}

// Close implements Conn.
func (c *RemoteConn) Close() error {
	c.closed = true
	return nil
}

// remapISIError unwraps ISI user exceptions into plain errors so callers see
// the engine's message rather than exception plumbing.
func remapISIError(err error) error {
	if ue, ok := err.(*orb.UserException); ok {
		return fmt.Errorf("%s", ue.Message)
	}
	return err
}

// RemoteDriver opens connections to ISI servants via stringified IORs
// (DSN form "remote://IOR:...").
type RemoteDriver struct {
	ORB *orb.ORB
}

// Open implements Driver.
func (d *RemoteDriver) Open(name string) (Conn, error) {
	ref, err := d.ORB.ResolveString(name)
	if err != nil {
		return nil, err
	}
	return NewRemoteConn(ref), nil
}

var _ Conn = (*RemoteConn)(nil)
var _ Driver = (*RemoteDriver)(nil)
var _ Driver = (*RelationalDriver)(nil)
var _ Driver = (*ObjectDriver)(nil)
