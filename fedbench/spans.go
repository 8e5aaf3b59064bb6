package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// interval is a span's extent in nanoseconds since the epoch.
type interval struct{ start, end int64 }

func spanInterval(r *trace.SpanRecord) interval {
	s := r.Start.UnixNano()
	return interval{s, s + int64(r.Duration)}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the span and their intervals are
// merged before measuring, so parallel children that overlap one another
// (member sub-calls, peer probes) are not subtracted twice.
func selfTime(span interval, children []interval) time.Duration {
	kids := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, span.start), min(c.end, span.end)
		if c.end > c.start {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var covered int64
	cur := interval{-1, -1}
	for _, k := range kids {
		if k.start > cur.end {
			covered += cur.end - cur.start
			cur = k
			continue
		}
		cur.end = max(cur.end, k.end)
	}
	covered += cur.end - cur.start
	return time.Duration(span.end - span.start - covered)
}

// Layer labels for span self time.
const (
	layerRoot      = "unattributed" // the benchmark's own op span
	layerWTL       = "wtl"
	layerCoord     = "query.coord"
	layerMerge     = "query.member"
	layerDiscovery = "query.discovery"
	layerORB       = "orb.client"
	layerGateway   = "gateway.isi"
	layerCodb      = "codb"
	layerRel       = "relational.exec"
	layerOO        = "oodb.exec"
	layerRelWrite  = "relational.write"
	layerOther     = "other"
)

func attrOf(r *trace.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// layerOf attributes a span to the layer that did the work during its self
// time, by the span names the program records and the ORB interceptor's
// client:/server: spans (whose object key tells an ISI servant from a
// co-database servant).
func layerOf(r *trace.SpanRecord) string {
	name := r.Name
	switch {
	case name == "bench.op":
		return layerRoot
	case name == "bench.parse":
		return layerWTL
	case strings.HasPrefix(name, "query:"):
		return layerCoord
	case strings.HasPrefix(name, "query.member:"):
		return layerMerge
	case strings.HasPrefix(name, "query.stage:"), strings.HasPrefix(name, "query.probe:"),
		strings.HasPrefix(name, "query.relay:"), strings.HasPrefix(name, "query.relayprobe:"):
		return layerDiscovery
	case strings.HasPrefix(name, "client:"):
		return layerORB
	case strings.HasPrefix(name, "server:"):
		if strings.HasPrefix(attrOf(r, "key"), "ISI/") {
			return layerGateway
		}
		return layerCodb
	case strings.HasPrefix(name, "codb."):
		return layerCodb
	case strings.HasPrefix(name, "isi.exec:"):
		return layerRelWrite
	case strings.HasPrefix(name, "isi.query:"), strings.HasPrefix(name, "isi.cursor:"):
		_, engine, _ := strings.Cut(name, ":")
		if core.IsRelational(engine) {
			return layerRel
		}
		return layerOO
	}
	return layerOther
}

// spanStats is the per-layer split of the traced ops.
type spanStats struct {
	ops       int                      // traced ops (bench.op roots)
	self      map[string]time.Duration // summed self time per layer
	rootTotal time.Duration            // summed root (op) wall time
	memberMS  []float64                // query.member span durations
	straggler []float64                // per op: slowest / median member span
}

// analyzeSpans groups spans by trace, keeps the traces rooted in a bench.op
// span, and sums each span's self time into its layer.
func analyzeSpans(spans []trace.SpanRecord) *spanStats {
	st := &spanStats{self: map[string]time.Duration{}}
	byTrace := map[string][]*trace.SpanRecord{}
	for i := range spans {
		byTrace[spans[i].Trace] = append(byTrace[spans[i].Trace], &spans[i])
	}
	for _, recs := range byTrace {
		var root *trace.SpanRecord
		kids := map[string][]interval{}
		for _, r := range recs {
			if r.Name == "bench.op" && r.Parent == "" {
				root = r
			}
			if r.Parent != "" {
				kids[r.Parent] = append(kids[r.Parent], spanInterval(r))
			}
		}
		if root == nil {
			continue // background work (gossip rounds), not a benchmark op
		}
		st.ops++
		st.rootTotal += root.Duration
		var members []float64
		for _, r := range recs {
			st.self[layerOf(r)] += selfTime(spanInterval(r), kids[r.Span])
			if strings.HasPrefix(r.Name, "query.member:") {
				ms := float64(r.Duration) / 1e6
				members = append(members, ms)
				st.memberMS = append(st.memberMS, ms)
			}
		}
		if len(members) >= 2 {
			slowest := 0.0
			for _, m := range members {
				slowest = max(slowest, m)
			}
			st.straggler = append(st.straggler, ratio(slowest, median(members)))
		}
	}
	return st
}

// perOpMS is a layer's mean self time per traced op, in milliseconds.
func (st *spanStats) perOpMS(layer string) float64 {
	return ratio(float64(st.self[layer])/1e6, float64(st.ops))
}
