package main

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// Parallel member calls overlap: their union, not their sum, is
		// subtracted.
		{"overlapping", []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		// A child that outlives its parent (a cancelled member still
		// closing its cursor) only covers the parent's part of it.
		{"clipped", []interval{{90, 130}, {-20, 5}}, 85},
		{"covering", []interval{{0, 100}, {20, 30}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(interval{0, 100}, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

// span builds a finished span record at [start, end) ms on a fixed clock.
func span(traceID, id, parent, name string, start, end int, attrs ...trace.Attr) trace.SpanRecord {
	t0 := time.Unix(1000, 0)
	return trace.SpanRecord{Trace: traceID, Span: id, Parent: parent, Name: name, Attrs: attrs,
		Start: t0.Add(time.Duration(start) * time.Millisecond), Duration: time.Duration(end-start) * time.Millisecond}
}

// TestAnalyzeSpansAttributesLayers builds one op's tree the way the program
// records it: a statement span with two overlapping member spans, each
// calling an ISI servant over IIOP, where the server span (recorded by the
// other ORB) is a child of the client span by remote parentage.
func TestAnalyzeSpansAttributesLayers(t *testing.T) {
	isi := trace.Attr{Key: "key", Value: "ISI/S1"}
	recs := []trace.SpanRecord{
		span("t1", "root", "", "bench.op", 0, 100),
		span("t1", "parse", "root", "bench.parse", 0, 2),
		span("t1", "stmt", "root", "query:FuncQuery", 2, 98),
		span("t1", "m1", "stmt", "query.member:S1", 10, 60),
		span("t1", "m2", "stmt", "query.member:S3", 20, 90),
		span("t1", "c1", "m1", "client:open_cursor", 12, 58),
		span("t1", "s1", "c1", "server:open_cursor", 15, 55, isi),
		span("t1", "e1", "s1", "isi.cursor:Oracle", 16, 54),
		span("t1", "c2", "m2", "client:open_cursor", 22, 88),
		span("t1", "s2", "c2", "server:open_cursor", 24, 86, isi),
		span("t1", "e2", "s2", "isi.cursor:ObjectStore", 25, 85),
		// A gossip round in its own trace is not a benchmark op.
		span("t2", "g", "", "client:gossip_pull", 0, 500),
	}
	st := analyzeSpans(recs)
	if st.ops != 1 || st.rootTotal != 100*time.Millisecond {
		t.Fatalf("ops %d, root total %v", st.ops, st.rootTotal)
	}
	// Self times in ms: the root less parse and statement; the statement
	// less the union [10,90] of its members; each member, client and server
	// span less its one child; the engine spans whole.
	want := map[string]time.Duration{
		layerRoot:    2,
		layerWTL:     2,
		layerCoord:   16,
		layerMerge:   4 + 4,
		layerORB:     6 + 4,
		layerGateway: 2 + 2,
		layerRel:     38,
		layerOO:      60,
	}
	for layer, ms := range want {
		if got := st.self[layer]; got != ms*time.Millisecond {
			t.Errorf("layer %s: self %v, want %v", layer, got, ms*time.Millisecond)
		}
	}
	if len(st.memberMS) != 2 || len(st.straggler) != 1 || st.straggler[0] != 70.0/60.0 {
		t.Errorf("member spans %v, straggler %v", st.memberMS, st.straggler)
	}
}
