package query_test

import (
	"context"
	"testing"

	"repro/internal/gossip"
	"repro/internal/query"
)

// TestHierarchicalDiscoveryEquivalence builds the planner fixture twice and
// sweeps an unknown topic once with hierarchical routing (shard size 2: the
// four peers relay through two representatives) and once flat. The member
// accounting must be identical, and the planner stats must prove the
// hierarchical run actually relayed while the flat run never did.
func TestHierarchicalDiscoveryEquivalence(t *testing.T) {
	_, hier := planFederation(t, 5, nil)
	_, flat := planFederation(t, 5, nil)
	tune(hier[0].Processor, func(o *query.Options) { o.SubCoalitionSize = 2 })
	tune(flat[0].Processor, func(o *query.Options) { o.SubCoalitionSize = -1 })
	ctx := context.Background()

	rh, err := hier[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	rf, err := flat[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rh.Members) != 4 || len(rf.Members) != 4 {
		t.Fatalf("sweeps probed %d / %d members, want 4", len(rh.Members), len(rf.Members))
	}
	for i := range rh.Members {
		h, f := rh.Members[i], rf.Members[i]
		if h.Member != f.Member || h.ErrClass != f.ErrClass || h.Stale != f.Stale {
			t.Fatalf("member %d diverges: hier %+v flat %+v", i, h, f)
		}
	}
	if rh.Partial != rf.Partial || len(rh.Leads) != len(rf.Leads) {
		t.Fatalf("verdicts diverge: hier partial=%v leads=%d, flat partial=%v leads=%d",
			rh.Partial, len(rh.Leads), rf.Partial, len(rf.Leads))
	}
	sh := hier[0].Processor.PlannerStats()
	if sh.RelayShards != 2 || sh.RelayedProbes != 4 || sh.RelayFailovers != 0 {
		t.Fatalf("hierarchical stats: %+v", sh)
	}
	if sf := flat[0].Processor.PlannerStats(); sf.RelayShards != 0 || sf.RelayedProbes != 0 {
		t.Fatalf("flat run relayed: %+v", sf)
	}
}

// TestHierarchicalRelayFailover closes the first shard's representative:
// the relay must fail over to the next shard member in-line, the dead node
// must be accounted like any failed member, and every other member must
// still be probed exactly once.
func TestHierarchicalRelayFailover(t *testing.T) {
	_, nodes := planFederation(t, 5, nil)
	tune(nodes[0].Processor, func(o *query.Options) { o.SubCoalitionSize = 2 })
	ctx := context.Background()

	// S1 is the first member of shard [S1 S2] — the elected representative
	// while the failure detector has nothing against it.
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := nodes[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("sweep with a dead member not partial: %+v", resp.Members)
	}
	healthy := 0
	for _, m := range resp.Members {
		switch m.Member {
		case "S1":
			if m.ErrClass == "" {
				t.Fatalf("dead member answered: %+v", m)
			}
		default:
			if m.ErrClass != "" {
				t.Fatalf("healthy member failed: %+v", m)
			}
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("%d healthy members, want 3: %+v", healthy, resp.Members)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.RelayShards != 2 || st.RelayFailovers == 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}
}

// TestGossipAppliedInvalidation drives the gossip OnApply hook directly: an
// applied entry must land in the metadata cache under its version stamp, a
// replayed older entry must be refused by the merge-by-version rule, and
// unresolvable co-database references must be skipped without damage.
func TestGossipAppliedInvalidation(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	p := nodes[0].Processor
	cache := nodes[0].MDCache

	ref := nodes[1].Descriptor.CoDBRef
	p.GossipApplied([]gossip.Entry{
		{Node: "S1", Version: 40, CoDBRef: ref, Coalitions: []string{"C"}},
		{Node: "S2", Version: 7}, // no ref: merged, nothing to invalidate
		{Node: "SX", Version: 1, CoDBRef: "not-a-reference"},
	})
	merges := cache.Stats.Merges.Load()
	if merges != 3 {
		t.Fatalf("merges = %d, want 3", merges)
	}
	if _, ver, ok := cache.PeekVersioned("gossip|S1"); !ok || ver != 40 {
		t.Fatalf("gossip|S1 = v%d ok=%v, want v40", ver, ok)
	}

	// A stale replay must bounce off the version stamp.
	p.GossipApplied([]gossip.Entry{{Node: "S1", Version: 39, CoDBRef: ref}})
	if rejects := cache.Stats.MergeRejects.Load(); rejects != 1 {
		t.Fatalf("merge rejects = %d, want 1", rejects)
	}
	if _, ver, _ := cache.PeekVersioned("gossip|S1"); ver != 40 {
		t.Fatalf("stale replay moved the version to %d", ver)
	}
}
