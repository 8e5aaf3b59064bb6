package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/query"
)

// fed is one running federation built from a dataset.
type fed struct {
	d     *dataset
	orbs  map[orb.Product]*orb.ORB
	nodes []*core.Node
	// conns are the home node's ISI connections to the writable members,
	// the path churn UPDATEs take (gateway.RemoteConn.Exec).
	conns map[int]*gateway.RemoteConn
	spare *sessionLane // churn: the spare's session, used in ticket order

	stopGossip context.CancelFunc
	gossipWG   sync.WaitGroup
}

func dataInterface() []codb.ExportedType {
	return []codb.ExportedType{{
		Name: "obs",
		Functions: []codb.ExportedFunction{
			{Name: "Val", Returns: "int", Table: "obs", ResultColumn: "val", ArgColumn: "id"},
			{Name: "Code", Returns: "int", Table: "obs", ResultColumn: "code", ArgColumn: "id"},
		},
	}}
}

func refInterface() []codb.ExportedType {
	return []codb.ExportedType{{
		Name: "ref",
		Functions: []codb.ExportedFunction{
			{Name: "RefCode", Returns: "int", Table: "ref", ResultColumn: "code", ArgColumn: "id"},
		},
	}}
}

// schemaSQL renders a relational member's DDL and rows as multi-row INSERTs.
func schemaSQL(n *nodeSpec) string {
	var b strings.Builder
	insert := func(table string, rows int, values func(r int) string) {
		for r := 0; r < rows; r += 500 {
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
			for k := r; k < min(r+500, rows); k++ {
				if k > r {
					b.WriteByte(',')
				}
				b.WriteString(values(k))
			}
			b.WriteString(";\n")
		}
	}
	switch {
	case n.Obs != nil:
		b.WriteString("CREATE TABLE obs (id INT PRIMARY KEY, grp INT, val INT, code INT);\n")
		t := n.Obs
		insert("obs", len(t.val), func(r int) string {
			return fmt.Sprintf("(%d,%d,%d,%d)", r, t.grp[r], t.val[r], t.code[r])
		})
	case n.Ref != nil:
		b.WriteString("CREATE TABLE ref (id INT PRIMARY KEY, code INT);\n")
		insert("ref", len(n.Ref.code), func(r int) string {
			return fmt.Sprintf("(%d,%d)", r, n.Ref.code[r])
		})
	case n.Tiny:
		b.WriteString("CREATE TABLE t (k INT PRIMARY KEY, v INT);\n")
		insert("t", 4, func(r int) string { return fmt.Sprintf("(%d,%d)", r, r) })
	}
	return b.String()
}

func seedObjects(n *nodeSpec) func(*oodb.DB) error {
	return func(db *oodb.DB) error {
		switch {
		case n.Obs != nil:
			if _, err := db.DefineClass("obs", "",
				oodb.Attribute{Name: "id", Type: oodb.AttrInt}, oodb.Attribute{Name: "grp", Type: oodb.AttrInt},
				oodb.Attribute{Name: "val", Type: oodb.AttrInt}, oodb.Attribute{Name: "code", Type: oodb.AttrInt}); err != nil {
				return err
			}
			t := n.Obs
			for r := range t.val {
				if _, err := db.NewObject("obs", map[string]any{"id": int64(r), "grp": int64(t.grp[r]),
					"val": int64(t.val[r]), "code": int64(t.code[r])}); err != nil {
					return err
				}
			}
		case n.Ref != nil:
			if _, err := db.DefineClass("ref", "",
				oodb.Attribute{Name: "id", Type: oodb.AttrInt}, oodb.Attribute{Name: "code", Type: oodb.AttrInt}); err != nil {
				return err
			}
			for r, c := range n.Ref.code {
				if _, err := db.NewObject("ref", map[string]any{"id": int64(r), "code": int64(c)}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// homeProduct is the ORB the home nodes run on. Only it colocates: a call
// from a home node to a member on the same ORB takes the in-process path
// (the paper's Figure 2), and every other call crosses loopback IIOP to one
// of the other two ORB products.
const homeProduct = orb.Orbix

// buildFed boots the three ORB products on loopback, builds and seeds every
// node, replicates coalitions and links into the co-databases entitled to
// them (as core.Federation does), and for churn starts every node's gossip
// loop at the default interval.
func buildFed(d *dataset) (*fed, error) {
	fd := &fed{d: d, orbs: map[orb.Product]*orb.ORB{}, conns: map[int]*gateway.RemoteConn{}}
	for _, p := range products {
		o := orb.New(orb.Options{Product: p, DisableColocation: p != homeProduct})
		fd.orbs[p] = o
		if err := o.Listen("127.0.0.1:0"); err != nil {
			fd.close()
			return nil, err
		}
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		cfg := core.NodeConfig{Name: n.Name, Engine: n.Engine, InformationType: n.InfoType,
			ORB: fd.orbs[n.Product], Documentation: "http://" + strings.ToLower(n.Name) + ".example/"}
		switch {
		case n.Obs != nil:
			cfg.Interface = dataInterface()
		case n.Ref != nil:
			cfg.Interface = refInterface()
		}
		if core.IsRelational(n.Engine) {
			cfg.Schema = schemaSQL(n)
		} else {
			cfg.SeedObjects = seedObjects(n)
		}
		node, err := core.NewNode(cfg)
		if err != nil {
			fd.close()
			return nil, fmt.Errorf("node %s: %w", n.Name, err)
		}
		fd.nodes = append(fd.nodes, node)
	}
	if err := fd.wire(); err != nil {
		fd.close()
		return nil, err
	}
	homeORB := fd.orbs[homeProduct]
	for _, w := range d.Writable {
		fd.conns[w] = gateway.NewRemoteConn(homeORB.Resolve(fd.nodes[w].ISIIOR))
	}
	if d.Spare >= 0 {
		fd.spare = &sessionLane{sess: fd.nodes[d.Spare].NewSession()}
		fd.spare.cond = sync.NewCond(&fd.spare.mu)
	}
	if d.Workload == wlChurn {
		ctx, cancel := context.WithCancel(context.Background())
		fd.stopGossip = cancel
		for _, n := range fd.nodes {
			fd.gossipWG.Add(1)
			go func(n *core.Node) {
				defer fd.gossipWG.Done()
				n.StartGossip(ctx)
			}(n)
		}
	}
	return fd, nil
}

// wire defines every coalition in its members' co-databases with every
// member's descriptor, and records every link at its origin: the members of
// the origin coalition, or the origin database.
func (fd *fed) wire() error {
	for _, c := range fd.d.Coalitions {
		for _, m := range c.Members {
			cd := fd.nodes[m].CoDB
			if err := cd.DefineCoalition(c.Name, "", c.Desc); err != nil {
				return err
			}
			for _, o := range c.Members {
				if err := cd.AddMember(c.Name, fd.nodes[o].Descriptor); err != nil {
					return err
				}
			}
		}
	}
	for _, l := range fd.d.Links {
		link := &codb.ServiceLink{Name: l.Name, FromKind: "coalition", From: l.From,
			ToKind: "coalition", To: l.To, Description: l.Desc, InfoType: l.InfoType,
			CoDBRef: fd.nodes[fd.d.coalition(l.To).Members[0]].Descriptor.CoDBRef}
		holders := []int{l.FromNode}
		if l.FromNode >= 0 {
			link.FromKind, link.From = "database", fd.d.Nodes[l.FromNode].Name
		} else {
			holders = fd.d.coalition(l.From).Members
		}
		for _, h := range holders {
			if err := fd.nodes[h].CoDB.AddLink(link); err != nil {
				return err
			}
		}
	}
	return nil
}

// sessionLane serialises the spare's membership toggles in stream order:
// toggle t waits until toggles 0..t-1 have finished, whichever worker runs
// it. Ops are dispatched in stream order, so the one being waited on is
// already running and the wait always ends.
type sessionLane struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	sess *query.Session
}

func (l *sessionLane) wait(ticket int) {
	l.mu.Lock()
	for l.next != ticket {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

func (l *sessionLane) done() {
	l.mu.Lock()
	l.next++
	l.mu.Unlock()
	l.cond.Broadcast()
}

// quiesceGossip stops the gossip loops and waits for them to exit.
func (fd *fed) quiesceGossip() {
	if fd.stopGossip != nil {
		fd.stopGossip()
		fd.gossipWG.Wait()
		fd.stopGossip = nil
	}
}

// close stops gossip and every ORB. It is safe on a partly built fed.
func (fd *fed) close() {
	fd.quiesceGossip()
	for _, n := range fd.nodes {
		n.Close()
	}
	for _, o := range fd.orbs {
		o.Shutdown()
	}
}

// drained waits until every ORB has no client call in flight and every
// node's cursor tables are empty: closes of abandoned cursors travel as
// detached calls and may still be on the wire when the last op returns.
func (fd *fed) drained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var inflight, open int64
		for _, p := range products {
			inflight += fd.orbs[p].Stats.InFlight.Load()
		}
		for _, n := range fd.nodes {
			open += int64(n.CursorStats().Open)
		}
		if inflight == 0 && open == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("teardown: %d ORB calls still in flight, %d cursors still open", inflight, open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// teardown checks the federation is quiescent, shuts it down and waits for
// the process to return to its goroutine baseline, so repeated federations in
// one process cannot drift.
func (fd *fed) teardown(baseline int) error {
	fd.quiesceGossip()
	err := fd.drained(3 * time.Second)
	fd.close()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("teardown: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
