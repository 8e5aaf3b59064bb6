package simtest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
)

// The differential streaming suite: the same heterogeneous federation is
// built twice from the same seed — once with a 2-row cursor batch
// (coalition sub-queries page through server-side cursors), once with a
// batch no smaller than any member's result (every member answers in its
// open reply, one round trip) — and both run an identical workload. The
// batch size may only change how rows cross the wire, never the answer:
// rows, columns, the Partial flag and per-member error classes must match
// exactly, including under a mid-stream member death and a top-K early
// termination that cancels open cursors.

// Batch sizes for the two halves of a streaming differential pair. The
// 2-row window forces multi-fetch cursor traffic even on the small fixture;
// the one-batch window covers every member's whole fragment result.
const (
	pagedBatch   = 2
	oneBatchRows = diffRows
)

// buildStreamFed builds one half of a streaming differential pair with the
// given merge window / cursor batch size.
func buildStreamFed(t *testing.T, seed int64, batch int) *Fed {
	t.Helper()
	fed, err := Build(Config{
		Seed:        seed,
		Hetero:      true,
		RowsPerNode: diffRows,
		Options:     query.Options{MergeBufRows: batch},
	})
	if err != nil {
		t.Fatalf("build (batch %d): %v\n%s", batch, err, ReplayLine(seed))
	}
	return fed
}

// noCursorsLeaked asserts every node's servants released their cursors.
func noCursorsLeaked(t *testing.T, fed *Fed, when string, seed int64) {
	t.Helper()
	for _, n := range fed.Nodes {
		if st := n.Core.CursorStats(); st.Open != 0 {
			t.Fatalf("%s: node %s still holds %d open cursor(s)\n%s",
				when, n.Name, st.Open, ReplayLine(seed))
		}
	}
}

// TestDifferentialStreaming runs the workload over the seed matrix, healthy
// and under a partition, and requires byte-identical outcomes from both
// batch sizes — while proving the paged half actually paged through cursors
// and left none open.
func TestDifferentialStreaming(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			on := buildStreamFed(t, seed, pagedBatch)
			defer on.Close()
			off := buildStreamFed(t, seed, oneBatchRows)
			defer off.Close()

			ctx := context.Background()
			runBoth := func(stmt string) (*query.Response, *query.Response) {
				t.Helper()
				ron, err := on.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("paged %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				roff, err := off.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("one-batch %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := outcomeOf(ron), outcomeOf(roff); a != b {
					t.Fatalf("batch sizes diverge on %q:\n  paged    : %+v\n  one-batch: %+v\n%s",
						stmt, a, b, ReplayLine(seed))
				}
				return ron, roff
			}

			for _, stmt := range diffWorkload {
				runBoth(stmt)
			}
			// Top-K early termination cancels the cursors it abandons; a full
			// drain exhausts them. Either way nothing stays open.
			noCursorsLeaked(t, on, "after workload", seed)

			// Mid-stream member death: the link to a member dies while the
			// coalition scan is in flight. Both halves must agree on the
			// degraded accounting — the unreachable member reports "comm" and
			// the result is Partial.
			on.Partition(0, 2)
			off.Partition(0, 2)
			ron, _ := runBoth(diffWorkload[0])
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
			noCursorsLeaked(t, on, "after partition run", seed)

			// The equivalence must not be vacuous: the paged half held real
			// server-side cursors open across fetches (the 2-row window forces
			// paging), the one-batch half never retained one — an open whose
			// first batch is the whole result keeps no server state.
			var openedOn, openedOff int64
			for _, n := range on.Nodes {
				openedOn += n.Core.CursorStats().Opened
			}
			for _, n := range off.Nodes {
				openedOff += n.Core.CursorStats().Opened
			}
			if openedOn == 0 {
				t.Fatalf("paged federation never paged through a cursor\n%s", ReplayLine(seed))
			}
			if openedOff != 0 {
				t.Fatalf("one-batch federation retained %d cursor(s)\n%s", openedOff, ReplayLine(seed))
			}
		})
	}
}

// TestStreamingTopKClosesCursors pins the cancellation contract: a satisfied
// LIMIT abandons the remaining members' cursors mid-scan, and the merge must
// close every one of them on its way out.
func TestStreamingTopKClosesCursors(t *testing.T) {
	seed := int64(11)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	fed := buildStreamFed(t, seed, pagedBatch)
	defer fed.Close()
	ctx := context.Background()

	topK, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+` Limit 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topK.Result.Rows); got != 3 {
		t.Fatalf("Limit 3 returned %d rows", got)
	}
	if topK.Partial {
		t.Fatalf("limit-satisfied query flagged partial: %+v", topK.Members)
	}
	noCursorsLeaked(t, fed, "after top-K", seed)

	// And the pull contract moved fewer rows than a full scan: the limit
	// stopped the fan-out before the later members were drained.
	full, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+`;`)
	if err != nil {
		t.Fatal(err)
	}
	if topK.RowsMoved >= full.RowsMoved {
		t.Fatalf("top-K moved %d rows, full scan moved %d — cancellation bought nothing",
			topK.RowsMoved, full.RowsMoved)
	}
}
