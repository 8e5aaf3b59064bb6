package query_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/query"
)

// drainRows pulls every row out of a stream, returning the materialized rows.
func drainRows(t *testing.T, rows *query.Rows) []query.Row {
	t.Helper()
	var out []query.Row
	for rows.Next() {
		var src string
		var v idl.Any
		if err := rows.Scan(&src, &v); err != nil {
			t.Fatal(err)
		}
		out = append(out, query.Row{idl.String(src), v})
	}
	return out
}

func TestStreamMatchesExecute(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	exec, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Stream(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	streamed := drainRows(t, rows)
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(exec.Result.Rows) {
		t.Fatalf("streamed %d rows, Execute returned %d", len(streamed), len(exec.Result.Rows))
	}
	for i, row := range streamed {
		if !reflect.DeepEqual([]idl.Any(row), exec.Result.Rows[i]) {
			t.Fatalf("row %d: streamed %+v, materialized %+v", i, row, exec.Result.Rows[i])
		}
	}
	if !reflect.DeepEqual(rows.Columns(), exec.Result.Columns) {
		t.Fatalf("columns: streamed %v, materialized %v", rows.Columns(), exec.Result.Columns)
	}
	if rows.Partial() != exec.Partial {
		t.Fatalf("partial: streamed %v, materialized %v", rows.Partial(), exec.Partial)
	}
	sm, em := rows.Members(), exec.Members
	if len(sm) != len(em) {
		t.Fatalf("members: streamed %d, materialized %d", len(sm), len(em))
	}
	for i := range sm {
		if sm[i].Member != em[i].Member || sm[i].ErrClass != em[i].ErrClass {
			t.Fatalf("member %d: streamed %+v, materialized %+v", i, sm[i], em[i])
		}
	}
}

func TestStreamWithLimit(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C Limit 4;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	streamed := drainRows(t, rows)
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 4 {
		t.Fatalf("Limit 4 streamed %d rows", len(streamed))
	}
	for _, row := range streamed {
		if row[0].Str != "S0" {
			t.Fatalf("limit rows out of member order: %+v", streamed)
		}
	}
	if rows.Partial() {
		t.Fatalf("limit cut-off flagged partial: %+v", rows.Members())
	}
	if st := nodes[0].Processor.PlannerStats(); st.EarlyTerminations == 0 {
		t.Fatalf("stream's satisfied limit not counted: %+v", st)
	}
}

func TestStreamAllEarlyBreak(t *testing.T) {
	// A 2-row merge window (< planFixtureRows) makes the members hold real
	// server-side cursors open mid-stream, so the open-count assertions below
	// actually exercise cursor release.
	_, nodes := planFederation(t, 3, func(i int, c *core.NodeConfig) {
		c.MergeBufRows = 2
	})
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for i, row := range rows.All() {
		if len(row) != 2 {
			t.Fatalf("row %d has %d columns", i, len(row))
		}
		got++
		if got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("broke after %d rows", got)
	}
	// All closed the stream when the loop broke: abandoning mid-stream is not
	// an error, and further Next calls report exhaustion.
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next succeeded after the stream was closed")
	}
	// Every member's server-side cursor is released.
	for _, n := range nodes {
		if open := n.ISICursors().OpenCount(); open != 0 {
			t.Fatalf("node %s still holds %d open cursor(s)", n.Config.Name, open)
		}
	}
}

func TestStreamNonCoalitionMaterialized(t *testing.T) {
	_, nodes := planFederation(t, 2, nil)
	s := nodes[0].NewSession()

	// A single-source function query is not a coalition fan-out, so Stream
	// serves it from the materialized Execute path.
	rows, err := s.Stream(context.Background(), `V(R.K) On S1;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if len(rows.Columns()) == 0 {
		t.Fatal("materialized stream has no columns")
	}
	var got int
	for rows.Next() {
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != planFixtureRows {
		t.Fatalf("single-source stream returned %d rows, want %d", got, planFixtureRows)
	}
}

func TestRowsScanTypes(t *testing.T) {
	_, nodes := planFederation(t, 1, nil)
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C Limit 1;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var src string
	var v64 int64
	if err := rows.Scan(&src, &v64); err != nil {
		t.Fatal(err)
	}
	if src != "S0" || v64 != 0 {
		t.Fatalf("scanned (%q, %d)", src, v64)
	}
	var vi int
	var vf float64
	if err := rows.Scan(&src, &vi); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(&src, &vf); err != nil {
		t.Fatal(err)
	}
	var va idl.Any
	if err := rows.Scan(&src, &va); err != nil {
		t.Fatal(err)
	}
	if va.Kind != idl.KindLongLong || va.Int != int64(vi) || vf != float64(vi) {
		t.Fatalf("scan disagreement: any=%+v int=%d float=%g", va, vi, vf)
	}
	if err := rows.Scan(&src); err == nil {
		t.Fatal("Scan with the wrong destination count succeeded")
	}
	var bad struct{}
	if err := rows.Scan(&src, &bad); err == nil {
		t.Fatal("Scan into an unsupported type succeeded")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestStreamCancelReleasesEverything(t *testing.T) {
	_, nodes := planFederation(t, 3, func(i int, c *core.NodeConfig) {
		c.MergeBufRows = 2
	})
	s := nodes[0].NewSession()
	cursorsOpen := func() int {
		open := 0
		for _, n := range nodes {
			open += n.ISICursors().OpenCount()
		}
		return open
	}

	// Let one full stream settle the lazily-built plumbing (memoized clients,
	// parser pools) before taking the goroutine baseline.
	warm, err := s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	for warm.Next() {
	}
	warm.Close()
	baseline := runtime.NumGoroutine()

	// Cancelling the statement context mid-stream must tear the fan-out down:
	// member sub-calls unwind, server-side cursors close, goroutines exit.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Stream(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	rows.Close()
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("ctx cancel left %d cursor(s) open", cursorsOpen())
	}

	// Close alone (no cancel) must release everything too.
	rows, err = s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	rows.Close()
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("Close left %d cursor(s) open", cursorsOpen())
	}
	if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

func TestStreamBoundsCoordinatorBuffering(t *testing.T) {
	const members, bufRows = 3, 4
	_, nodes := planFederation(t, members, func(i int, c *core.NodeConfig) {
		c.MergeBufRows = bufRows
	})
	s := nodes[0].NewSession()

	resp, err := s.Execute(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Result.Rows); got != members*planFixtureRows {
		t.Fatalf("full scan rows = %d", got)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.PeakMergeBuffered == 0 {
		t.Fatal("peak merge buffer gauge never moved")
	}
	if st.PeakMergeBuffered > members*bufRows {
		t.Fatalf("peak merge buffer %d exceeds members x MergeBufRows = %d",
			st.PeakMergeBuffered, members*bufRows)
	}
}
