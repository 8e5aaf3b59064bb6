package main

import (
	"fmt"
	"math/rand"
)

type opKind uint8

const (
	opSel       opKind = iota // selective pushed id range
	opTopK                    // group equality with Limit k
	opSemi                    // SemiJoin against the side coalition
	opWide                    // a few hundred rows per member
	opFind                    // Find Coalitions With Information
	opInstances               // Display Instances Of Class
	opAccess                  // Display Access Information Of Instance
	opConnect                 // Connect To Coalition
	opUpdate                  // UPDATE through gateway.RemoteConn.Exec
	opJoin                    // Join Coalition by the spare
	opLeave                   // Leave Coalition by the spare
)

// write reports whether the op counts toward the write latencies: data
// writes and membership toggles.
func (k opKind) write() bool { return k >= opUpdate }

// Op is one generated operation. Text is all the program receives: a
// WebTassili statement, or SQL for an UPDATE. The remaining fields are the
// generator's own record of what it asked for, from which the checker
// derives the expected answer.
type Op struct {
	Kind   opKind
	Node   int // issuing home node, or the UPDATE's target member
	Text   string
	A, W   int // id range [A, A+W) of the data side
	B, BW  int // id range [B, B+BW) of the semi-join build side
	G, K   int // group and Limit of top-K ops
	Name   string
	Ticket int // Join/Leave only: position among membership toggles
}

// stream yields a workload's op sequence. The same seed yields the same
// sequence; it is consumed in order across every phase of a run, so the
// churn spare's Join/Leave toggles always alternate from its true state.
type stream struct {
	d       *dataset
	rng     *rand.Rand
	zipf    *rand.Zipf
	toggles int
	warm    bool // warm-up streams never write
}

func newStream(d *dataset, seed int64, warm bool) *stream {
	salt := int64(101)
	if warm {
		salt = 202
	}
	rng := rand.New(rand.NewSource(seed*104729 + salt))
	s := &stream{d: d, rng: rng, warm: warm}
	if len(d.Topics) > 0 {
		s.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(d.Topics)-1))
	}
	return s
}

// churnTemplates bounds churn reads to a template set small enough for both
// the federated plan cache and each engine's 256-entry plan cache, and large
// enough that the cost of its literals averages out between seeds.
const churnTemplates = 32

func (s *stream) next() *Op {
	r := s.rng.Intn(1000)
	var op *Op
	switch s.d.Workload {
	case wlScan:
		switch {
		// Writes are cheap beside scans, so they can be 40% of ops and still
		// a small share of the work; that many gives the write latencies
		// enough samples.
		case r < 400 && !s.warm:
			op = s.update()
		case r < 600:
			op = s.sel(20)
		case r < 720:
			op = s.topk()
		case r < 810:
			op = s.semi()
		default:
			op = s.wide()
		}
	case wlChurn:
		switch {
		case r < 20 && !s.warm:
			op = s.toggle()
		case r < 170 && !s.warm:
			op = s.update()
		default:
			op = s.churnRead()
		}
	case wlDiscovery:
		switch {
		case r < 100 && !s.warm:
			op = s.update()
		case r < 550:
			op = s.find()
		case r < 700:
			op = s.instances()
		case r < 850:
			op = s.access()
		default:
			op = s.connect()
		}
	}
	return op
}

func (s *stream) home() int { return s.d.Homes[s.rng.Intn(len(s.d.Homes))] }

func (s *stream) rangeOp(kind opKind, w int) *Op {
	a := s.rng.Intn(s.d.ReadRows - w)
	return &Op{Kind: kind, Node: s.home(), A: a, W: w,
		Text: fmt.Sprintf("Val(obs.id, (obs.id >= %d AND obs.id < %d)) On Coalition %s;", a, a+w, scanCoalition)}
}

func (s *stream) sel(w int) *Op { return s.rangeOp(opSel, w) }

func (s *stream) wide() *Op { return s.rangeOp(opWide, 200+s.rng.Intn(201)) }

func (s *stream) topk() *Op {
	g, k := s.rng.Intn(grpCount), 5+s.rng.Intn(56)
	return s.topkOf(g, k)
}

func (s *stream) topkOf(g, k int) *Op {
	return &Op{Kind: opTopK, Node: s.home(), G: g, K: k,
		Text: fmt.Sprintf("Val(obs.id, (obs.grp = %d AND obs.id < %d)) On Coalition %s Limit %d;",
			g, s.d.ReadRows, scanCoalition, k)}
}

// semi draws build sides of 15 or 30 ids per side member: up to 45 keys
// ship as an IN list, up to 90 exceed the 64-key limit and go as a Bloom
// filter.
func (s *stream) semi() *Op {
	w := 400
	if s.d.ReadRows < 4000 {
		w = 200
	}
	a := s.rng.Intn(s.d.ReadRows - w)
	bw := 15 * (1 + s.rng.Intn(2))
	b := s.rng.Intn(2000 - bw)
	return s.semiOf(a, w, b, bw)
}

func (s *stream) semiOf(a, w, b, bw int) *Op {
	return &Op{Kind: opSemi, Node: s.home(), A: a, W: w, B: b, BW: bw,
		Text: fmt.Sprintf("Code(obs.id, (obs.id >= %d AND obs.id < %d)) On Coalition %s "+
			"SemiJoin RefCode(ref.id, (ref.id >= %d AND ref.id < %d)) On Coalition %s;",
			a, a+w, scanCoalition, b, b+bw, sideCoalition)}
}

// churnRead picks one of a fixed template set, a quarter of each read kind, with
// literals derived from the seed, so every seed offers the same mix.
func (s *stream) churnRead() *Op {
	i := s.rng.Intn(churnTemplates)
	t := rand.New(rand.NewSource(s.d.Seed*31 + int64(i)))
	var op *Op
	switch i % 4 {
	case 0:
		a := t.Intn(s.d.ReadRows - 20)
		op = &Op{Kind: opSel, A: a, W: 20}
	case 1:
		a := t.Intn(s.d.ReadRows - 300)
		op = &Op{Kind: opWide, A: a, W: 300}
	case 2:
		return s.topkOf(t.Intn(grpCount), 5+t.Intn(56))
	default:
		return s.semiOf(t.Intn(s.d.ReadRows-200), 200, t.Intn(1985), 15)
	}
	op.Node = s.home()
	op.Text = fmt.Sprintf("Val(obs.id, (obs.id >= %d AND obs.id < %d)) On Coalition %s;",
		op.A, op.A+op.W, scanCoalition)
	return op
}

func (s *stream) update() *Op {
	n := s.d.Writable[s.rng.Intn(len(s.d.Writable))]
	v := s.rng.Intn(1000000)
	if s.d.Workload == wlDiscovery {
		k := s.rng.Intn(4)
		return &Op{Kind: opUpdate, Node: n, A: k,
			Text: fmt.Sprintf("UPDATE t SET v = %d WHERE k = %d", v, k)}
	}
	k := s.d.ReadRows + s.rng.Intn(len(s.d.Nodes[n].Obs.val)-s.d.ReadRows)
	return &Op{Kind: opUpdate, Node: n, A: k,
		Text: fmt.Sprintf("UPDATE obs SET val = %d WHERE id = %d", v, k)}
}

func (s *stream) toggle() *Op {
	op := &Op{Kind: opJoin, Node: s.d.Spare, Ticket: s.toggles, Name: scanCoalition}
	if s.toggles%2 == 1 {
		op.Kind = opLeave
	}
	s.toggles++
	verb := "Join"
	if op.Kind == opLeave {
		verb = "Leave"
	}
	op.Text = fmt.Sprintf("%s Coalition %s;", verb, scanCoalition)
	return op
}

func (s *stream) find() *Op {
	topic := s.d.Topics[s.zipf.Uint64()]
	return &Op{Kind: opFind, Node: s.home(), Name: topic,
		Text: fmt.Sprintf("Find Coalitions With Information %s;", topic)}
}

func (s *stream) instances() *Op {
	home := s.home()
	cs := s.d.memberOf(home)
	c := cs[s.rng.Intn(len(cs))]
	return &Op{Kind: opInstances, Node: home, Name: c.Name,
		Text: fmt.Sprintf("Display Instances Of Class %s;", c.Name)}
}

func (s *stream) access() *Op {
	home := s.home()
	cs := s.d.memberOf(home)
	c := cs[s.rng.Intn(len(cs))]
	m := s.d.Nodes[c.Members[s.rng.Intn(len(c.Members))]].Name
	return &Op{Kind: opAccess, Node: home, Name: m,
		Text: fmt.Sprintf("Display Access Information Of Instance %s;", m)}
}

func (s *stream) connect() *Op {
	home := s.home()
	c := s.d.Coalitions[s.rng.Intn(len(s.d.Coalitions))].Name
	return &Op{Kind: opConnect, Node: home, Name: c,
		Text: fmt.Sprintf("Connect To Coalition %s;", c)}
}
