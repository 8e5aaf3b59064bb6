package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/oodb"
	"repro/internal/orb"
)

func newTestORB(t *testing.T) *orb.ORB {
	t.Helper()
	o := orb.New(orb.Options{Product: orb.Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	return o
}

func TestNewNodeRelational(t *testing.T) {
	o := newTestORB(t)
	n, err := NewNode(NodeConfig{
		Name:            "TestDB",
		Engine:          EngineOracle,
		ORB:             o,
		InformationType: "testing",
		Schema:          "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.RelDB == nil || n.OODB != nil {
		t.Fatal("wrong engine wiring")
	}
	if n.Descriptor.Wrapper != "WebTassiliOracle" {
		t.Errorf("wrapper = %s", n.Descriptor.Wrapper)
	}
	if n.Descriptor.ISIRef == "" || n.Descriptor.CoDBRef == "" {
		t.Error("descriptor missing references")
	}
	if n.Descriptor.Location != o.Addr() {
		t.Errorf("default location = %q, want ORB addr %q", n.Descriptor.Location, o.Addr())
	}
	// The ISI servant answers for the node's engine.
	ref, err := o.ResolveString(n.Descriptor.ISIRef)
	if err != nil {
		t.Fatal(err)
	}
	found, err := ref.Locate()
	if err != nil || !found {
		t.Errorf("ISI locate = %t, %v", found, err)
	}
	// Session against own node: native query.
	s := n.NewSession()
	resp, err := s.Execute(context.Background(), `Query TestDB Using Native "SELECT COUNT(*) FROM t";`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Rows[0][0].Int != 2 {
		t.Errorf("count = %v", resp.Result.Rows[0][0])
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := o.ActiveKeys(); len(keys) != 0 {
		t.Errorf("servants left after Close: %v", keys)
	}
}

// TestNewNodeMDCacheOff: a negative MDCacheTTL (mdcache_ttl_ms -1 in node
// JSON) builds the node without a metadata cache; zero keeps the default one.
func TestNewNodeMDCacheOff(t *testing.T) {
	o := newTestORB(t)
	on, err := NewNode(NodeConfig{Name: "CacheOn", Engine: EngineOracle, ORB: o})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewNode(NodeConfig{Name: "CacheOff", Engine: EngineOracle, ORB: o, MDCacheTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	if on.MDCache == nil || off.MDCache != nil {
		t.Errorf("MDCache: default %v, negative TTL %v; want a cache only by default", on.MDCache, off.MDCache)
	}
}

func TestNewNodeObject(t *testing.T) {
	o := newTestORB(t)
	n, err := NewNode(NodeConfig{
		Name:   "ObjDB",
		Engine: EngineOntos,
		ORB:    o,
		SeedObjects: func(db *oodb.DB) error {
			if _, err := db.DefineClass("Thing", "",
				oodb.Attribute{Name: "N", Type: oodb.AttrString}); err != nil {
				return err
			}
			_, err := db.NewObject("Thing", map[string]any{"N": "x"})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.OODB == nil {
		t.Fatal("OODB not built")
	}
	s := n.NewSession()
	resp, err := s.Execute(context.Background(), `Query ObjDB Using Native "SELECT N FROM Thing";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Str != "x" {
		t.Errorf("rows = %+v", resp.Result.Rows)
	}
}

func TestNewNodeErrors(t *testing.T) {
	o := newTestORB(t)
	cases := []NodeConfig{
		{Engine: EngineOracle, ORB: o},                                // no name
		{Name: "x", Engine: EngineOracle},                             // no ORB
		{Name: "x", Engine: "FoxPro", ORB: o},                         // unknown engine
		{Name: "x", Engine: EngineOracle, ORB: o, Schema: "BAD SQL;"}, // schema error
	}
	for i, cfg := range cases {
		if _, err := NewNode(cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	// Unlistened ORB.
	dead := orb.New(orb.Options{})
	if _, err := NewNode(NodeConfig{Name: "x", Engine: EngineOracle, ORB: dead}); err == nil {
		t.Error("node on unlistened ORB accepted")
	}
}

func TestFederationWiring(t *testing.T) {
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()

	add := func(name string, product orb.Product) *Node {
		t.Helper()
		n, err := f.AddNode(product, NodeConfig{
			Name:            name,
			Engine:          EngineOracle,
			InformationType: "topic " + name,
			Schema:          "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);",
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := add("Alpha", orb.Orbix)
	add("Beta", orb.OrbixWeb)
	add("Gamma", orb.VisiBroker)

	if _, err := f.AddNode(orb.Orbix, NodeConfig{Name: "Alpha", Engine: EngineOracle}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := f.AddNode("NoSuchORB", NodeConfig{Name: "Delta", Engine: EngineOracle}); err == nil {
		t.Error("unknown product accepted")
	}

	if err := f.DefineCoalition("Topic", "", "shared topic", "Alpha", "Beta"); err != nil {
		t.Fatal(err)
	}
	if err := f.DefineCoalition("Topic", "", "dup"); err == nil {
		t.Error("duplicate coalition accepted")
	}
	if err := f.DefineCoalition("Bad", "", "x", "NoSuchNode"); err == nil {
		t.Error("coalition with unknown member accepted")
	}
	// Both members know the coalition and each other.
	members, err := a.CoDB.Members("Topic")
	if err != nil || len(members) != 2 {
		t.Fatalf("Alpha sees %d members, %v", len(members), err)
	}
	// Gamma does not know it.
	g, _ := f.Node("Gamma")
	if g.CoDB.HasCoalition("Topic") {
		t.Error("non-member knows the coalition")
	}

	// Sub-coalition under a parent.
	if err := f.DefineCoalition("SubTopic", "Topic", "specialised", "Alpha"); err != nil {
		t.Fatal(err)
	}
	subs, err := a.CoDB.SubCoalitions("Topic", true)
	if err != nil || len(subs) != 1 || subs[0] != "SubTopic" {
		t.Errorf("subcoalitions = %v, %v", subs, err)
	}

	// Links.
	if err := f.AddLink(LinkSpec{Name: "G_to_Topic", FromKind: "database", From: "Gamma",
		ToKind: "coalition", To: "Topic", InfoType: "shared topic"}); err != nil {
		t.Fatal(err)
	}
	if got := g.CoDB.Links(); len(got) != 1 || got[0].CoDBRef == "" {
		t.Errorf("Gamma links = %+v", got)
	}
	if err := f.AddLink(LinkSpec{Name: "bad", FromKind: "database", From: "Nope",
		ToKind: "coalition", To: "Topic"}); err == nil {
		t.Error("link with unknown origin accepted")
	}
	if err := f.AddLink(LinkSpec{Name: "bad2", FromKind: "database", From: "Gamma",
		ToKind: "coalition", To: "Empty"}); err == nil {
		t.Error("link to empty coalition accepted")
	}
	if err := f.AddLink(LinkSpec{Name: "bad3", FromKind: "wombat", From: "Gamma",
		ToKind: "coalition", To: "Topic"}); err == nil {
		t.Error("bad origin kind accepted")
	}

	// Cross-node discovery: Gamma finds Topic through its link.
	s := g.NewSession()
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information shared topic;")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range resp.Leads {
		if l.Coalition == "Topic" && strings.HasPrefix(l.Via, "link:") {
			found = true
		}
	}
	if !found {
		t.Errorf("leads = %+v", resp.Leads)
	}
	// And can connect + browse through the link.
	if _, err := s.Execute(context.Background(), "Connect To Coalition Topic;"); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Execute(context.Background(), "Display Instances of Class Topic;")
	if err != nil || len(resp.Sources) != 2 {
		t.Errorf("instances over link = %v, %v", resp.Names, err)
	}

	// Join/Leave through the federation.
	if err := f.JoinCoalition("Topic", "Gamma"); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Members("Topic")); got != 3 {
		t.Errorf("members after join = %d", got)
	}
	if err := f.JoinCoalition("Nope", "Gamma"); err == nil {
		t.Error("join unknown coalition accepted")
	}
	if err := f.JoinCoalition("Topic", "Nope"); err == nil {
		t.Error("join unknown node accepted")
	}
	if err := f.LeaveCoalition("Topic", "Gamma"); err != nil {
		t.Fatal(err)
	}
	if err := f.LeaveCoalition("Topic", "Gamma"); err == nil {
		t.Error("double leave accepted")
	}
}

// TestJoinViaWebTassili drives Join/Leave through the language rather than
// the federation helper: the session advertises the home descriptor into a
// coalition reachable through the session's context.
func TestJoinViaWebTassili(t *testing.T) {
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	mk := func(name string) *Node {
		n, err := f.AddNode(orb.Orbix, NodeConfig{
			Name: name, Engine: EngineOracle,
			InformationType: "records of " + name,
			Schema:          "CREATE TABLE t (a INT);",
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mk("One")
	two := mk("Two")
	if err := f.DefineCoalition("Club", "", "club records", "One"); err != nil {
		t.Fatal(err)
	}
	// Two learns about the club through a link, then joins via WebTassili.
	if err := f.AddLink(LinkSpec{Name: "Two_to_Club", FromKind: "database", From: "Two",
		ToKind: "coalition", To: "Club", InfoType: "club records"}); err != nil {
		t.Fatal(err)
	}
	s := two.NewSession()
	if _, err := s.Execute(context.Background(), "Join Coalition Club;"); err != nil {
		t.Fatal(err)
	}
	one, _ := f.Node("One")
	members, _ := one.CoDB.Members("Club")
	if len(members) != 2 {
		t.Fatalf("club members after WebTassili join = %d", len(members))
	}
	if _, err := s.Execute(context.Background(), "Leave Coalition Club;"); err != nil {
		t.Fatal(err)
	}
	members, _ = one.CoDB.Members("Club")
	if len(members) != 1 {
		t.Errorf("club members after WebTassili leave = %d", len(members))
	}
}

// TestMaintenanceStatements drives Create Coalition / Create Service Link
// through WebTassili against a node's own co-database.
func TestMaintenanceStatements(t *testing.T) {
	o := newTestORB(t)
	n, err := NewNode(NodeConfig{
		Name: "Solo", Engine: EngineMSQL,
		Schema: "CREATE TABLE t (a INT);",
	})
	_ = n
	if err == nil {
		t.Fatal("expected error: no ORB")
	}
	node, err := NewNode(NodeConfig{
		Name: "Solo", Engine: EngineMSQL, ORB: o,
		Schema: "CREATE TABLE t (a INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := node.NewSession()
	if _, err := s.Execute(context.Background(), `Create Coalition Local Topics Description "local organisation";`); err != nil {
		t.Fatal(err)
	}
	if !node.CoDB.HasCoalition("Local Topics") {
		t.Error("coalition not created")
	}
	if _, err := s.Execute(context.Background(), `Create Service Link Solo_to_Elsewhere From Database Solo To Coalition Local Topics Information "topics";`); err != nil {
		t.Fatal(err)
	}
	if got := node.CoDB.Links(); len(got) != 1 || got[0].Name != "Solo_to_Elsewhere" {
		t.Errorf("links = %+v", got)
	}
	// A descriptor lookup for the owner works even with no coalition
	// membership (owner access info).
	d, ok := node.CoDB.FindSource("Solo")
	if !ok || d.Engine != EngineMSQL {
		t.Errorf("owner descriptor = %+v, %t", d, ok)
	}
}

func TestIsRelational(t *testing.T) {
	for _, e := range []string{EngineOracle, EngineMSQL, EngineDB2, EngineSybase} {
		if !IsRelational(e) {
			t.Errorf("%s not relational", e)
		}
	}
	for _, e := range []string{EngineObjectStore, EngineOntos, "Nope"} {
		if IsRelational(e) {
			t.Errorf("%s relational", e)
		}
	}
}

var _ = codb.SourceDescriptor{} // keep import for doc reference

// TestPeerFailureDuringDiscovery kills a coalition peer's ORB mid-flight:
// stage-3 resolution must skip the dead peer rather than fail, and data
// access to the dead source must surface a typed communication failure.
func TestPeerFailureDuringDiscovery(t *testing.T) {
	// A dedicated federation (we kill one of its ORBs).
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	mk := func(name string, p orb.Product, topic string) *Node {
		n, err := f.AddNode(p, NodeConfig{
			Name: name, Engine: EngineOracle, InformationType: topic,
			Schema: "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);",
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	home := mk("Home", orb.Orbix, "home records")
	mk("Peer", orb.VisiBroker, "peer records")
	if err := f.DefineCoalition("Shared", "", "shared records", "Home", "Peer"); err != nil {
		t.Fatal(err)
	}

	s := home.NewSession()
	// Baseline: peer's data is reachable.
	if _, err := s.Execute(context.Background(), `Query Peer Using Native "SELECT a FROM t";`); err != nil {
		t.Fatalf("baseline query: %v", err)
	}

	// Kill the peer's ORB (VisiBroker hosts only Peer here).
	f.ORB(orb.VisiBroker).Shutdown()

	// Discovery for an unknown topic escalates to peers; the dead peer is
	// skipped and the query completes (with no leads) instead of erroring.
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information unknown elsewhere topic;")
	if err != nil {
		t.Fatalf("discovery with dead peer: %v", err)
	}
	if len(resp.Leads) != 0 {
		t.Errorf("leads from dead peer = %+v", resp.Leads)
	}
	// Data access to the dead source fails loudly and typed.
	_, err = s.Execute(context.Background(), `Query Peer Using Native "SELECT a FROM t";`)
	if err == nil {
		t.Fatal("query against dead source succeeded")
	}
	if se, ok := err.(*orb.SystemException); ok && se.Name != orb.ExcCommFailure {
		t.Errorf("error = %v", err)
	}
	// Local work is unaffected.
	if _, err := s.Execute(context.Background(), `Query Home Using Native "SELECT a FROM t";`); err != nil {
		t.Errorf("local query after peer death: %v", err)
	}
}
