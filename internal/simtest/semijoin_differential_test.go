package simtest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
)

// The differential semi-join suite: the same heterogeneous federation is
// built twice from the same seed — once with semi-join key pushdown on, once
// with it off — and both run an identical join workload. The pushdown may
// only change how many probe-side rows cross the wire (engine-side IN lists,
// coordinator Bloom prefilter), never the answer: rows, columns, Partial
// flag and per-member error classes must match exactly, across engines,
// seeds, a metadata-drift member that rejects pushed IN lists mid-query,
// partitions, and the Bloom path.

// semiJoinWorkload is the statement list both modes execute from node 0.
var semiJoinWorkload = []string{
	// Selective build side: only the small v values survive, so the probe's
	// IN push prunes every k-row of nodes 1+. Exact-key path on capable
	// engines, coordinator filter on the object engines, rejected-then-bare
	// on the drift member.
	`V(R.K) On Coalition ` + BaseCoalition + ` SemiJoin V(R.V, (R.V < 5)) On Coalition ` + BaseCoalition + `;`,
	// String-typed keys through K: the IN list renders quoted literals.
	`K(R.V) On Coalition ` + BaseCoalition + ` SemiJoin K(R.V, (R.K LIKE "k0%")) On Coalition ` + BaseCoalition + `;`,
	// The outer side estimates more selective (equality beats no predicate),
	// so the planner swaps: outer builds, the join clause side probes.
	`V(R.K, (R.K = "a")) On Coalition ` + BaseCoalition + ` SemiJoin V(R.V) On Coalition ` + BaseCoalition + `;`,
	// Cross-coalition correlation: probe c0 by keys built over c1.
	`V(R.K) On Coalition c0 SemiJoin V(R.V, (R.V = 2)) On Coalition c1;`,
	// Top-K over the probe stream: LIMIT counts post-filter rows and
	// early-terminates the probe fan-out.
	`V(R.K) On Coalition ` + BaseCoalition + ` SemiJoin V(R.V, (R.V < 2000)) On Coalition ` + BaseCoalition + ` Limit 3;`,
	// Empty build side: nothing matches, the probe must come back empty
	// (and no IN () fragment may ever be rendered).
	`V(R.K) On Coalition ` + BaseCoalition + ` SemiJoin V(R.V, (R.V = 999999)) On Coalition ` + BaseCoalition + `;`,
}

// buildSemiJoinFed builds one half of a differential pair. keyLimit 0 keeps
// the default exact-IN/Bloom crossover.
func buildSemiJoinFed(t *testing.T, seed int64, disableSemiJoin bool, keyLimit int) *Fed {
	t.Helper()
	fed, err := Build(Config{
		Seed:        seed,
		Hetero:      true,
		RowsPerNode: diffRows,
		Options:     query.Options{DisableSemiJoin: disableSemiJoin, SemiJoinKeyLimit: keyLimit},
	})
	if err != nil {
		t.Fatalf("build (semijoin off=%v): %v\n%s", disableSemiJoin, err, ReplayLine(seed))
	}
	return fed
}

// TestDifferentialSemiJoin runs the join workload over the seed matrix,
// healthy and under a partition, and requires byte-identical outcomes from
// both semi-join modes — while proving the two modes actually took different
// paths: keys pushed and probe rows pruned on one side, nothing pushed on
// the other, a mid-query IN rejection on the drift member, and strictly
// fewer probe-side rows moved with the pushdown on.
func TestDifferentialSemiJoin(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			on := buildSemiJoinFed(t, seed, false, 0)
			defer on.Close()
			off := buildSemiJoinFed(t, seed, true, 0)
			defer off.Close()

			ctx := context.Background()
			runBoth := func(stmt string) (*query.Response, *query.Response) {
				t.Helper()
				ron, err := on.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("semijoin-on %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				roff, err := off.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("semijoin-off %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := outcomeOf(ron), outcomeOf(roff); a != b {
					t.Fatalf("semi-join modes diverge on %q:\n  on : %+v\n  off: %+v\n%s",
						stmt, a, b, ReplayLine(seed))
				}
				return ron, roff
			}

			for _, stmt := range semiJoinWorkload {
				runBoth(stmt)
			}

			// Under a partition both sides of the join fan out to the dead
			// member; the degraded accounting must agree between modes, and
			// the unreachable member must report "comm".
			on.Partition(0, 2)
			off.Partition(0, 2)
			ron, _ := runBoth(semiJoinWorkload[0])
			found := false
			for _, m := range ron.Members {
				if m.Member == "N2" && m.ErrClass == "comm" {
					found = true
				}
			}
			if !found || !ron.Partial {
				t.Fatalf("partitioned member not accounted: partial=%v members=%+v\n%s",
					ron.Partial, ron.Members, ReplayLine(seed))
			}
			on.HealAll()
			off.HealAll()

			// The equivalence must not be vacuous.
			son := on.Nodes[0].Core.Processor.PlannerStats()
			soff := off.Nodes[0].Core.Processor.PlannerStats()
			if son.SemiJoins == 0 || soff.SemiJoins == 0 {
				t.Fatalf("semi-join statements not counted (on=%d off=%d)\n%s",
					son.SemiJoins, soff.SemiJoins, ReplayLine(seed))
			}
			if son.KeysPushed == 0 {
				t.Fatalf("semijoin-on pushed no keys\n%s", ReplayLine(seed))
			}
			if son.ProbeRowsPruned == 0 {
				t.Fatalf("semijoin-on pruned no probe rows at the coordinator\n%s", ReplayLine(seed))
			}
			if son.SemiJoinFallbacks == 0 {
				t.Fatalf("drift member never rejected a pushed IN list (fallback path untested)\n%s", ReplayLine(seed))
			}
			if soff.KeysPushed != 0 || soff.BloomPushed != 0 || soff.SemiJoinFallbacks != 0 {
				t.Fatalf("semijoin-off still pushed (keys=%d bloom=%d fallbacks=%d)\n%s",
					soff.KeysPushed, soff.BloomPushed, soff.SemiJoinFallbacks, ReplayLine(seed))
			}
			// The pushdown's point: strictly fewer probe-side rows crossed the
			// wire (build sides are identical between modes).
			if son.RowsMoved >= soff.RowsMoved {
				t.Fatalf("semi-join pushdown moved %d rows, filter-only moved %d — no win\n%s",
					son.RowsMoved, soff.RowsMoved, ReplayLine(seed))
			}
		})
	}
}

// TestDifferentialSemiJoinBloom forces the Bloom path (key limit 1 makes any
// multi-key build side cross the threshold) and requires the same answers as
// the pushdown-off mode: Bloom false positives must be filtered exactly,
// never delivered.
func TestDifferentialSemiJoinBloom(t *testing.T) {
	seed := int64(11)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	on := buildSemiJoinFed(t, seed, false, 1)
	defer on.Close()
	off := buildSemiJoinFed(t, seed, true, 1)
	defer off.Close()

	ctx := context.Background()
	for _, stmt := range semiJoinWorkload {
		ron, err := on.Nodes[0].Session.Execute(ctx, stmt)
		if err != nil {
			t.Fatalf("bloom-on %q: %v\n%s", stmt, err, ReplayLine(seed))
		}
		roff, err := off.Nodes[0].Session.Execute(ctx, stmt)
		if err != nil {
			t.Fatalf("bloom-off %q: %v\n%s", stmt, err, ReplayLine(seed))
		}
		if a, b := outcomeOf(ron), outcomeOf(roff); a != b {
			t.Fatalf("bloom mode diverges on %q:\n  on : %+v\n  off: %+v\n%s",
				stmt, a, b, ReplayLine(seed))
		}
	}
	son := on.Nodes[0].Core.Processor.PlannerStats()
	if son.BloomPushed == 0 {
		t.Fatalf("key limit 1 never engaged the Bloom path\n%s", ReplayLine(seed))
	}
	if son.ProbeRowsPruned == 0 {
		t.Fatalf("Bloom mode pruned no probe rows\n%s", ReplayLine(seed))
	}
}
