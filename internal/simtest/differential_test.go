package simtest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/query"
)

// The differential pushdown suite: the same heterogeneous federation is
// built twice from the same seed — once with predicate/limit pushdown on,
// once with it off — and both run an identical workload. Pushdown may only
// change WHERE predicates are evaluated and how many rows cross the wire,
// never the answer: rows, columns, Partial flag and per-member error classes
// must match exactly, across engines, seeds, a metadata-drift member whose
// engine rejects pushed clauses mid-query, and partitions.

// diffRows is the per-node row count for the differential federations:
// enough volume for LIMIT to terminate mid-member.
const diffRows = 5

// diffWorkload is the statement list both modes execute from node 0.
var diffWorkload = []string{
	// Equality on the key: fully pushable on every engine.
	`V(R.K, (R.K = "a")) On Coalition ` + BaseCoalition + `;`,
	// Range on the result column: pushable comparison, numeric literal.
	`V(R.V, (R.V >= 2000)) On Coalition ` + BaseCoalition + `;`,
	// LIKE: residual on mSQL (no standard LIKE), pushed elsewhere, and
	// pushed-then-rejected on the drift member that claims Oracle.
	`V(R.K, (R.K LIKE "k0%")) On Coalition ` + BaseCoalition + `;`,
	// Mixed conjunction: LIKE plus a numeric range.
	`V(R.V, (R.K LIKE "k%" AND R.V > 1)) On Coalition ` + BaseCoalition + `;`,
	// Top-K: limit below one member's row count — pushed into fragments
	// where the dialect has LIMIT, early-terminating the fan-out either way.
	`V(R.K) On Coalition ` + BaseCoalition + ` Limit 3;`,
	// Top-K spanning members, with a predicate.
	`V(R.V, (R.V >= 0)) On Coalition ` + BaseCoalition + ` Limit 8;`,
}

// diffOutcome is the mode-independent projection of one response: everything
// that must be identical between pushdown modes.
type diffOutcome struct {
	rows    string
	columns string
	partial bool
	members string // member:errclass pairs, in member order
}

func outcomeOf(resp *query.Response) diffOutcome {
	var rows []string
	for _, row := range resp.Result.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = fmt.Sprintf("%v", c)
		}
		rows = append(rows, strings.Join(cells, "|"))
	}
	var members []string
	for _, m := range resp.Members {
		members = append(members, m.Member+":"+m.ErrClass)
	}
	return diffOutcome{
		rows:    strings.Join(rows, "\n"),
		columns: strings.Join(resp.Result.Columns, ","),
		partial: resp.Partial,
		members: strings.Join(members, " "),
	}
}

// buildDiffFed builds one half of a differential pair.
func buildDiffFed(t *testing.T, seed int64, disablePushdown bool) *Fed {
	t.Helper()
	fed, err := Build(Config{
		Seed:        seed,
		Hetero:      true,
		RowsPerNode: diffRows,
		Options:     query.Options{DisablePushdown: disablePushdown},
	})
	if err != nil {
		t.Fatalf("build (pushdown off=%v): %v\n%s", disablePushdown, err, ReplayLine(seed))
	}
	return fed
}

// TestDifferentialPushdown runs the workload over the seed matrix, healthy
// and under a partition, and requires byte-identical outcomes from both
// pushdown modes — while proving the two modes actually took different
// paths (fragments pushed vs everything compensated, including a mid-query
// capability rejection on the drift member).
func TestDifferentialPushdown(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			on := buildDiffFed(t, seed, false)
			defer on.Close()
			off := buildDiffFed(t, seed, true)
			defer off.Close()

			ctx := context.Background()
			runBoth := func(stmt string) (*query.Response, *query.Response) {
				t.Helper()
				ron, err := on.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("pushdown-on %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				roff, err := off.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("pushdown-off %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := outcomeOf(ron), outcomeOf(roff); a != b {
					t.Fatalf("pushdown modes diverge on %q:\n  on : %+v\n  off: %+v\n%s",
						stmt, a, b, ReplayLine(seed))
				}
				return ron, roff
			}

			for _, stmt := range diffWorkload {
				runBoth(stmt)
			}

			// Under a partition the degraded accounting must agree too: the
			// unreachable member reports "comm" in both modes.
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

			// The equivalence must not be vacuous: the on-processor pushed
			// real fragments (and survived the drift member's mid-query
			// rejection of a pushed LIKE), the off-processor pushed nothing.
			son := on.Nodes[0].Core.Processor.PlannerStats()
			soff := off.Nodes[0].Core.Processor.PlannerStats()
			if son.FragmentsPushed == 0 {
				t.Fatalf("pushdown-on pushed no fragments\n%s", ReplayLine(seed))
			}
			if son.Fallbacks == 0 {
				t.Fatalf("drift member never rejected a pushed clause (fallback path untested)\n%s", ReplayLine(seed))
			}
			if soff.FragmentsPushed != 0 {
				t.Fatalf("pushdown-off still pushed %d conjuncts\n%s", soff.FragmentsPushed, ReplayLine(seed))
			}
			if son.EarlyTerminations == 0 || soff.EarlyTerminations == 0 {
				t.Fatalf("limit queries never terminated early (on=%d off=%d)\n%s",
					son.EarlyTerminations, soff.EarlyTerminations, ReplayLine(seed))
			}
			// Pushdown's point: strictly fewer rows crossed the wire.
			if son.RowsMoved >= soff.RowsMoved {
				t.Fatalf("pushdown moved %d rows, compensation moved %d — no win\n%s",
					son.RowsMoved, soff.RowsMoved, ReplayLine(seed))
			}
		})
	}
}

// TestDifferentialTopKMovesFewerRows pins the top-K contract on a single
// statement: with a pushable LIMIT the on-mode run must move strictly fewer
// member rows than the same statement without the LIMIT.
func TestDifferentialTopKMovesFewerRows(t *testing.T) {
	seed := int64(11)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	fed := buildDiffFed(t, seed, false)
	defer fed.Close()
	ctx := context.Background()

	full, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+`;`)
	if err != nil {
		t.Fatal(err)
	}
	topK, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+` Limit 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topK.Result.Rows); got != 3 {
		t.Fatalf("Limit 3 returned %d rows", got)
	}
	if topK.RowsMoved >= full.RowsMoved {
		t.Fatalf("top-K moved %d rows, full scan moved %d — early termination bought nothing",
			topK.RowsMoved, full.RowsMoved)
	}
	for _, m := range topK.Members[1:] {
		if m.ErrClass != "limit" {
			t.Fatalf("member %s after satisfied limit has class %q, want \"limit\"", m.Member, m.ErrClass)
		}
	}
	if topK.Partial {
		t.Fatalf("limit-satisfied query flagged partial: %+v", topK.Members)
	}
}
