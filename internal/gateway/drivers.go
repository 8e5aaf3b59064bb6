package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/idl"
	"repro/internal/oodb"
	"repro/internal/relational"
)

// Capabilities is a vendor's pushdown profile: which parts of a coalition
// function query the engine can evaluate itself, so the federated planner
// knows what to ship into the fragment and what to compensate for at the
// coordinator. Profiles are keyed by the engine name a source descriptor
// advertises — which is a claim, not a guarantee; the executor still
// tolerates an engine rejecting a pushed clause at run time.
type Capabilities struct {
	Predicates bool // evaluates pushed comparison conjuncts (= <> < <= > >=)
	Like       bool // evaluates pushed LIKE patterns
	Limit      bool // honours a pushed LIMIT clause
	InList     bool // evaluates a pushed literal IN list (semi-join key set)
}

// CapsFor resolves the capability profile for an advertised engine name.
// Relational vendors derive from their dialect profile (mSQL 2.x shipped
// RLIKE/CLIKE instead of standard LIKE, so LIKE stays at the coordinator,
// and wanted OR chains instead of IN lists, so semi-join key sets do too);
// the object engines evaluate every predicate but their OQL grammar has no
// LIMIT clause or IN operator. An unknown engine gets the zero profile —
// push nothing, the coordinator compensates for everything.
func CapsFor(engine string) Capabilities {
	switch engine {
	case "ObjectStore", "Ontos":
		return Capabilities{Predicates: true, Like: true, Limit: false, InList: false}
	}
	if d, err := relational.DialectByName(engine); err == nil {
		return Capabilities{Predicates: true, Like: d.Like, Limit: d.OrderLimit, InList: d.InList}
	}
	return Capabilities{}
}

// RelationalDriver serves connections to registered in-process relational
// engine instances. One driver instance is registered per vendor scheme
// ("oracle", "msql", "db2", "sybase"); Open(name) connects to the database
// registered under that name, enforcing that its dialect matches the scheme.
type RelationalDriver struct {
	vendor string // dialect name the scheme promises

	mu  sync.RWMutex
	dbs map[string]*relational.Database
}

// NewRelationalDriver creates a driver for one vendor.
func NewRelationalDriver(vendor string) *RelationalDriver {
	return &RelationalDriver{vendor: vendor, dbs: make(map[string]*relational.Database)}
}

// Add registers a database instance under its name.
func (d *RelationalDriver) Add(db *relational.Database) error {
	if db.Dialect().Name != d.vendor {
		return fmt.Errorf("gateway: database %s has dialect %s, driver serves %s",
			db.Name(), db.Dialect().Name, d.vendor)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dbs[strings.ToLower(db.Name())] = db
	return nil
}

// Open implements Driver.
func (d *RelationalDriver) Open(name string) (Conn, error) {
	d.mu.RLock()
	db, ok := d.dbs[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no %s database named %s", d.vendor, name)
	}
	return &relConn{db: db, session: db.NewSession(), vendor: d.vendor}, nil
}

type relConn struct {
	db      *relational.Database
	session *relational.Session
	vendor  string
	closed  bool
}

func (c *relConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: connection to %s is closed", c.db.Name())
	}
	return nil
}

// Query implements Conn. The engine is in-process and synchronous, so the
// context is not consulted mid-statement.
func (c *relConn) Query(_ context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res, err := c.db.Query(q)
	if err != nil {
		return nil, err
	}
	return fromRelational(res), nil
}

// QueryCursor implements Conn by materializing the result and iterating it:
// the engine is in-process, so there is no wire to stream over and batching
// buys nothing.
func (c *relConn) QueryCursor(ctx context.Context, q string, _ int) (RowIter, error) {
	res, err := c.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return NewSliceIter(res), nil
}

func (c *relConn) Exec(_ context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res, err := c.session.Exec(q)
	if err != nil {
		return nil, err
	}
	return fromRelational(res), nil
}

func (c *relConn) Begin() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Begin()
}

func (c *relConn) Commit() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Commit()
}

func (c *relConn) Rollback() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Rollback()
}

func (c *relConn) Meta() SourceMeta {
	return SourceMeta{Engine: c.vendor, Database: c.db.Name(), Model: "relational"}
}

func (c *relConn) Tables() []string { return c.db.TableNames() }

func (c *relConn) Close() error {
	if c.session.InTx() {
		if err := c.session.Rollback(); err != nil {
			return err
		}
	}
	c.closed = true
	return nil
}

// fromRelational converts an engine result to the gateway's wire result.
func fromRelational(r *relational.Result) *Result {
	return &Result{Columns: r.Columns, RowsAffected: r.RowsAffected, Rows: convertRows(r.Rows, relValueToAny)}
}

// convertRows converts an engine result's rows to wire values. All cells
// share one backing array: one allocation per result, not one per row.
func convertRows[R ~[]V, V any](rows []R, conv func(V) idl.Any) [][]idl.Any {
	if len(rows) == 0 {
		return nil
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	cells := make([]idl.Any, n)
	out := make([][]idl.Any, len(rows))
	for k, row := range rows {
		vals := cells[:len(row):len(row)]
		cells = cells[len(row):]
		for i, v := range row {
			vals[i] = conv(v)
		}
		out[k] = vals
	}
	return out
}

func relValueToAny(v relational.Value) idl.Any {
	if v.Null {
		return idl.Null()
	}
	switch v.Kind {
	case relational.TypeInt:
		return idl.Long(v.Int)
	case relational.TypeFloat:
		return idl.Double(v.Float)
	case relational.TypeBool:
		return idl.Bool(v.Bool)
	default: // TEXT, DATE
		return idl.String(v.Str)
	}
}

// ObjectDriver serves connections to registered in-process object-oriented
// engine instances; registered per product scheme ("objectstore", "ontos").
type ObjectDriver struct {
	product string

	mu  sync.RWMutex
	dbs map[string]*oodb.DB
}

// NewObjectDriver creates a driver for one OODB product.
func NewObjectDriver(product string) *ObjectDriver {
	return &ObjectDriver{product: product, dbs: make(map[string]*oodb.DB)}
}

// Add registers a database instance under its name.
func (d *ObjectDriver) Add(db *oodb.DB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dbs[strings.ToLower(db.Name())] = db
}

// Open implements Driver.
func (d *ObjectDriver) Open(name string) (Conn, error) {
	d.mu.RLock()
	db, ok := d.dbs[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no %s database named %s", d.product, name)
	}
	return &ooConn{db: db, product: d.product}, nil
}

type ooConn struct {
	db      *oodb.DB
	product string
	closed  bool
}

func (c *ooConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: connection to %s is closed", c.db.Name())
	}
	return nil
}

// Query implements Conn; in-process, so the context is not consulted.
func (c *ooConn) Query(_ context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	cols, rows, err := oodb.Query(c.db, q)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: convertRows(rows, ooValueToAny)}, nil
}

// QueryCursor implements Conn by materializing and iterating (in-process
// engine; see relConn.QueryCursor).
func (c *ooConn) QueryCursor(ctx context.Context, q string, _ int) (RowIter, error) {
	res, err := c.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return NewSliceIter(res), nil
}

// Exec on an OO connection accepts the same query language (reads only; the
// OO engines are populated through their native API, as in the paper's
// prototype where co-databases are maintained by the system).
func (c *ooConn) Exec(ctx context.Context, q string) (*Result, error) { return c.Query(ctx, q) }

func (c *ooConn) Begin() error {
	return fmt.Errorf("gateway: %s connections do not support transactions", c.product)
}

func (c *ooConn) Commit() error   { return c.Begin() }
func (c *ooConn) Rollback() error { return c.Begin() }

func (c *ooConn) Meta() SourceMeta {
	return SourceMeta{Engine: c.product, Database: c.db.Name(), Model: "object-oriented"}
}

func (c *ooConn) Tables() []string { return c.db.ClassNames() }

func (c *ooConn) Close() error {
	c.closed = true
	return nil
}

func ooValueToAny(v any) idl.Any {
	switch x := v.(type) {
	case nil:
		return idl.Null()
	case string:
		return idl.String(x)
	case int64:
		return idl.Long(x)
	case float64:
		return idl.Double(x)
	case bool:
		return idl.Bool(x)
	case []string:
		return idl.Strings(x)
	default:
		return idl.String(fmt.Sprintf("%v", x))
	}
}
