package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/orb"
)

// Workload names accepted by --workload.
const (
	wlScan      = "scan"
	wlDiscovery = "discovery"
	wlChurn     = "churn"
)

var products = []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker}

// Engines cycle Oracle/mSQL/DB2/ObjectStore/Ontos over the members, and the
// members cycle over the three ORB products, so every coalition mixes both
// engine families and both call paths (colocated on the home node's ORB,
// IIOP to the other two).
var dataEngines = []string{"Oracle", "mSQL", "DB2", "ObjectStore", "Ontos"}

// obsTable is one member's data table, column-wise; a row's id is its index.
// Ids below readRows are what read statements select; the ids above are the
// write range that UPDATEs touch, so answers stay checkable under writes.
type obsTable struct {
	grp, val, code []int32
	byGrp          map[int32][]int32 // grp -> ascending ids below readRows
}

// refTable is a side-coalition member's table: code per id.
type refTable struct {
	code []int32
}

type nodeSpec struct {
	Name     string
	Engine   string
	Product  orb.Product
	InfoType string
	Obs      *obsTable // data members of scan/churn (empty for the churn spare)
	Ref      *refTable // side-coalition members
	Tiny     bool      // discovery nodes: a 4-row table t(k, v) for light writes
}

type coalitionSpec struct {
	Name    string
	Desc    string
	Members []int
}

type linkSpec struct {
	Name     string
	FromNode int    // origin database, or -1 when From names the origin coalition
	From, To string // coalition names
	InfoType string
	Desc     string
}

// dataset is everything a workload derives from its seed before the
// federation exists: nodes, their rows, coalitions and links. The checker
// computes expected answers from it alone, never from the program.
type dataset struct {
	Workload   string
	Seed       int64
	ReadRows   int // ids [0, ReadRows) are read; [ReadRows, len) are written
	Nodes      []nodeSpec
	Coalitions []coalitionSpec
	Links      []linkSpec
	Homes      []int // nodes whose sessions issue reads
	Spare      int   // churn: the empty member that toggles membership (-1: none)
	Writable   []int // nodes UPDATEs target (relational)
	Topics     []string
}

const (
	scanCoalition = "Scan"
	sideCoalition = "Side"
	grpCount      = 100
	codeCount     = 5000
)

func newDataset(workload string, seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	switch workload {
	case wlScan:
		return dataScan(rng, seed, wlScan, 20000, 200), nil
	case wlChurn:
		return dataScan(rng, seed, wlChurn, 3000, 500), nil
	case wlDiscovery:
		return dataDiscovery(rng, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// dataScan builds the data-heavy shape: a 6-member coalition holding
// readRows+writeRows rows each, and a 3-member side coalition the semi-joins
// build their key sets from. Churn adds an empty spare that toggles its
// membership of the data coalition.
func dataScan(rng *rand.Rand, seed int64, workload string, readRows, writeRows int) *dataset {
	d := &dataset{Workload: workload, Seed: seed, ReadRows: readRows, Spare: -1}
	var members []int
	for i := 0; i < 6; i++ {
		n := nodeSpec{
			Name:     fmt.Sprintf("S%d", i),
			Engine:   dataEngines[i%len(dataEngines)],
			Product:  products[i%len(products)],
			InfoType: "observations",
			Obs:      genObs(rng, readRows+writeRows, readRows),
		}
		if core.IsRelational(n.Engine) {
			d.Writable = append(d.Writable, len(d.Nodes))
		}
		members = append(members, len(d.Nodes))
		d.Nodes = append(d.Nodes, n)
	}
	var side []int
	sideEngines := []string{"DB2", "ObjectStore", "mSQL"}
	for i := 0; i < 3; i++ {
		ref := &refTable{code: make([]int32, 2000)}
		for r := range ref.code {
			ref.code[r] = int32(rng.Intn(codeCount))
		}
		side = append(side, len(d.Nodes))
		d.Nodes = append(d.Nodes, nodeSpec{
			Name: fmt.Sprintf("R%d", i), Engine: sideEngines[i],
			Product: products[(i+1)%len(products)], InfoType: "references", Ref: ref,
		})
	}
	d.Coalitions = []coalitionSpec{
		{Name: scanCoalition, Desc: "observation records", Members: members},
		{Name: sideCoalition, Desc: "reference codes", Members: side},
	}
	d.Links = []linkSpec{{Name: "ScanToSide", FromNode: -1, From: scanCoalition, To: sideCoalition,
		InfoType: "references", Desc: "reference codes for observations"}}
	d.Homes = []int{0}
	if workload == wlChurn {
		d.Spare = len(d.Nodes)
		d.Nodes = append(d.Nodes, nodeSpec{Name: "Spare", Engine: "Oracle",
			Product: orb.VisiBroker, InfoType: "observations", Obs: genObs(rng, 0, 0)})
		// The spare belongs to no coalition; this link is its entry point
		// for Join Coalition.
		d.Links = append(d.Links, linkSpec{Name: "SpareToScan", FromNode: d.Spare,
			To: scanCoalition, InfoType: "observations", Desc: "observation records"})
	}
	return d
}

func genObs(rng *rand.Rand, rows, readRows int) *obsTable {
	t := &obsTable{grp: make([]int32, rows), val: make([]int32, rows),
		code: make([]int32, rows), byGrp: map[int32][]int32{}}
	for r := 0; r < rows; r++ {
		t.grp[r] = int32(rng.Intn(grpCount))
		t.val[r] = int32(rng.Intn(1000000))
		t.code[r] = int32(rng.Intn(codeCount))
		if r < readRows {
			t.byGrp[t.grp[r]] = append(t.byGrp[t.grp[r]], int32(r))
		}
	}
	return t
}

// Discovery shape: 64 nodes in eight 8-member coalitions, plus "Big" (5
// members of every group, 40 in all). From any home node Big's peer group,
// less the home group's members, still exceeds the default sub-coalition
// size of 32, so stage-3 discovery routes it through relay representatives.
const (
	discNodes    = 64
	discGroups   = 8
	bigCoalition = "Big"
	// topicCount sizes the topic vocabulary. Most topics miss stages 1-2,
	// so each one costs a home node ~9 probe/find cache keys and its relay
	// representatives ~32 more; at this size a home's key working set is
	// about twice mdcache's default 4096 entries.
	topicCount = 900
)

func dataDiscovery(rng *rand.Rand, seed int64) *dataset {
	d := &dataset{Workload: wlDiscovery, Seed: seed, Spare: -1}
	words := wordPool(rng, 160)
	for i := 0; i < discNodes; i++ {
		n := nodeSpec{
			Name:     fmt.Sprintf("D%02d", i),
			Engine:   dataEngines[i%len(dataEngines)],
			Product:  products[i%len(products)],
			InfoType: words[rng.Intn(64)] + " " + words[rng.Intn(64)],
		}
		if core.IsRelational(n.Engine) {
			n.Tiny = true
			d.Writable = append(d.Writable, i)
		}
		d.Nodes = append(d.Nodes, n)
	}
	var big []int
	for g := 0; g < discGroups; g++ {
		c := coalitionSpec{Name: fmt.Sprintf("G%d", g),
			Desc: words[64+2*g] + " " + words[65+2*g] + " " + words[80+g]}
		for k := 0; k < 8; k++ {
			c.Members = append(c.Members, g*8+k)
			if k < 5 {
				big = append(big, g*8+k)
			}
		}
		d.Coalitions = append(d.Coalitions, c)
	}
	d.Coalitions = append(d.Coalitions, coalitionSpec{Name: bigCoalition,
		Desc: words[96] + " " + words[97], Members: big})
	for g := 0; g < discGroups; g++ {
		d.Links = append(d.Links, linkSpec{Name: fmt.Sprintf("L%d", g), FromNode: -1,
			From: fmt.Sprintf("G%d", g), To: fmt.Sprintf("G%d", (g+1)%discGroups),
			InfoType: words[100+g], Desc: words[110+g] + " " + words[120+g]})
	}
	d.Homes = []int{0, 9, 18, 27}
	// Topics cycle three shapes by popularity rank, so every seed has the
	// same cost profile: two known words (some vocabulary scores each), a
	// known word with a word nobody offers, and a word nobody offers. A
	// topic without a full match in the home's own coalitions and links goes
	// on to the stage-3 peer sweep.
	seen := map[string]bool{}
	for len(d.Topics) < topicCount {
		known := words[rng.Intn(130)]
		unknown := fmt.Sprintf("zq%d", rng.Intn(100000))
		var topic string
		switch len(d.Topics) % 3 {
		case 0:
			topic = known + " " + words[rng.Intn(130)]
		case 1:
			topic = known + " " + unknown
		default:
			topic = unknown
		}
		if !seen[topic] {
			seen[topic] = true
			d.Topics = append(d.Topics, topic)
		}
	}
	return d
}

// wordPool makes n distinct lower-case alphabetic words.
func wordPool(rng *rand.Rand, n int) []string {
	const cons, vows = "bcdfghklmnprstvz", "aeiou"
	seen := map[string]bool{"and": true, "or": true, "the": true, "of": true, "in": true}
	var out []string
	for len(out) < n {
		var b strings.Builder
		for s := 0; s < 3; s++ {
			b.WriteByte(cons[rng.Intn(len(cons))])
			b.WriteByte(vows[rng.Intn(len(vows))])
		}
		w := b.String()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (d *dataset) coalition(name string) *coalitionSpec {
	for i := range d.Coalitions {
		if d.Coalitions[i].Name == name {
			return &d.Coalitions[i]
		}
	}
	return nil
}

// memberOf lists the coalitions a node belongs to.
func (d *dataset) memberOf(node int) []*coalitionSpec {
	var out []*coalitionSpec
	for i := range d.Coalitions {
		for _, m := range d.Coalitions[i].Members {
			if m == node {
				out = append(out, &d.Coalitions[i])
				break
			}
		}
	}
	return out
}

// linksHeldBy lists the links recorded in a node's co-database: those whose
// origin coalition it belongs to.
func (d *dataset) linksHeldBy(node int) []*linkSpec {
	var out []*linkSpec
	for _, c := range d.memberOf(node) {
		for i := range d.Links {
			if d.Links[i].FromNode < 0 && d.Links[i].From == c.Name {
				out = append(out, &d.Links[i])
			}
		}
	}
	return out
}
