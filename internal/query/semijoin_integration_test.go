package query_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/query"
)

// codbFunctionK is V's inverse (string keys out, int values in), added where
// a test needs string-typed join keys.
func codbFunctionK() codb.ExportedFunction {
	return codb.ExportedFunction{Name: "K", Returns: "string",
		Table: "r", ResultColumn: "k", ArgColumn: "v"}
}

// The semi-join fixture reuses planFederation: S0 (Oracle), S1 (mSQL),
// S2 (ObjectStore), each with rows ('r<i><j>', i*1000+j) for j=0..5. The
// build side below selects S2's values, so the probe's IN push returns
// nothing from S0 (capable engine), mSQL and ObjectStore fall back to the
// coordinator filter, and the answer is exactly S2's six rows.
const semiJoinStmt = `V(R.K) On Coalition C SemiJoin V(R.V, (R.V >= 2000)) On Coalition C;`

func TestFederatedSemiJoin(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()

	resp, err := s.Execute(context.Background(), semiJoinStmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Result.Rows); got != planFixtureRows {
		t.Fatalf("semi-join rows = %d, want %d: %+v", got, planFixtureRows, resp.Result.Rows)
	}
	for j, row := range resp.Result.Rows {
		if row[0].Str != "S2" || row[1].Int != int64(2000+j) {
			t.Fatalf("row %d = %+v, want [S2 %d]", j, row, 2000+j)
		}
	}
	if resp.Partial {
		t.Fatalf("healthy semi-join flagged partial: %+v", resp.Members)
	}
	// Probe statuses (3 members) followed by build statuses (3 members).
	if len(resp.Members) != 6 {
		t.Fatalf("members = %d, want probe+build = 6: %+v", len(resp.Members), resp.Members)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.SemiJoins != 1 {
		t.Fatalf("SemiJoins = %d", st.SemiJoins)
	}
	// Only S0 (Oracle) takes the IN list: six build keys pushed once.
	if st.KeysPushed != 6 {
		t.Fatalf("KeysPushed = %d, want 6", st.KeysPushed)
	}
	// S1's six rows are pruned at the coordinator; S2's all match.
	if st.ProbeRowsPruned != 6 {
		t.Fatalf("ProbeRowsPruned = %d, want 6", st.ProbeRowsPruned)
	}
	if st.BloomPushed != 0 || st.SemiJoinFallbacks != 0 {
		t.Fatalf("unexpected bloom/fallback activity: %+v", st)
	}
}

func TestSemiJoinRuntimeToggle(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	on, err := s.Execute(ctx, semiJoinStmt)
	if err != nil {
		t.Fatal(err)
	}
	tune(nodes[0].Processor, func(o *query.Options) { o.DisableSemiJoin = true })
	off, err := s.Execute(ctx, semiJoinStmt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on.Result, off.Result) {
		t.Fatalf("modes disagree:\non:  %+v\noff: %+v", on.Result, off.Result)
	}
	// With the pushdown on, S0's engine evaluates the IN list and its six
	// non-matching rows never move.
	if on.RowsMoved >= off.RowsMoved {
		t.Fatalf("semi-join pushdown moved %d rows, filter-only moved %d", on.RowsMoved, off.RowsMoved)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.KeysPushed != 6 {
		t.Fatalf("off-mode changed KeysPushed: %d", st.KeysPushed)
	}
}

func TestSemiJoinSwappedOrientation(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()

	// The outer side carries the equality (estimated more selective than the
	// unpredicated join clause), so the planner swaps: the outer builds, the
	// clause side probes with key 2000, and only S2's matching row survives.
	resp, err := s.Execute(context.Background(),
		`V(R.K, (R.K = "r20")) On Coalition C SemiJoin V(R.V) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 1 {
		t.Fatalf("swapped semi-join rows = %+v", resp.Result.Rows)
	}
	if row := resp.Result.Rows[0]; row[0].Str != "S2" || row[1].Int != 2000 {
		t.Fatalf("row = %+v, want [S2 2000]", row)
	}
	if resp.Partial {
		t.Fatalf("healthy swapped semi-join flagged partial: %+v", resp.Members)
	}
	if len(resp.Members) != 6 {
		t.Fatalf("members = %d, want both sides: %+v", len(resp.Members), resp.Members)
	}
}

func TestSemiJoinStringKeys(t *testing.T) {
	// Key on the k column through a string-returning join: every member's
	// build fragment yields its own keys, and the quoted IN list must round
	// trip through the engines that accept it.
	_, nodes := planFederation(t, 3, func(i int, c *core.NodeConfig) {
		for ti := range c.Interface {
			if c.Interface[ti].Name != "R" {
				continue
			}
			c.Interface[ti].Functions = append(c.Interface[ti].Functions,
				codbFunctionK())
		}
	})
	s := nodes[0].NewSession()
	resp, err := s.Execute(context.Background(),
		`K(R.V) On Coalition C SemiJoin K(R.V, (R.V >= 1000 AND R.V < 1002)) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 2 {
		t.Fatalf("string-keyed semi-join rows = %+v", resp.Result.Rows)
	}
	for j, row := range resp.Result.Rows {
		if row[0].Str != "S1" || row[1].Str != map[int]string{0: "r10", 1: "r11"}[j] {
			t.Fatalf("row %d = %+v", j, row)
		}
	}
}

func TestSemiJoinPlanCache(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	if _, err := s.Execute(ctx, semiJoinStmt); err != nil {
		t.Fatal(err)
	}
	first := nodes[0].Processor.PlannerStats()
	if first.Plans != 2 {
		t.Fatalf("semi-join planned %d sides, want 2", first.Plans)
	}
	// Repeat statement: both sides replay from the metadata cache.
	if _, err := s.Execute(ctx, semiJoinStmt); err != nil {
		t.Fatal(err)
	}
	second := nodes[0].Processor.PlannerStats()
	if second.PlanCacheHits-first.PlanCacheHits != 2 {
		t.Fatalf("repeat semi-join hit the plan cache %d times, want 2",
			second.PlanCacheHits-first.PlanCacheHits)
	}
	// A co-database schema change (membership churn) bumps the version the
	// cache verifies against: the next statement re-plans both sides.
	if err := nodes[0].CoDB.DefineCoalition("Unrelated", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, semiJoinStmt); err != nil {
		t.Fatal(err)
	}
	third := nodes[0].Processor.PlannerStats()
	if third.PlanCacheHits != second.PlanCacheHits {
		t.Fatalf("stale semi-join plans served from cache after a version bump (hits %d -> %d)",
			second.PlanCacheHits, third.PlanCacheHits)
	}
	if third.Plans-second.Plans != 2 {
		t.Fatalf("invalidated semi-join re-planned %d sides, want 2", third.Plans-second.Plans)
	}
}

// TestSemiJoinAbortReleasesEverything covers the leak contract: a semi-join
// abandoned mid-probe — by context cancel, by Rows.Close, or failed on the
// build side — must release every member cursor and fan-out goroutine on
// both sides.
func TestSemiJoinAbortReleasesEverything(t *testing.T) {
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
	// A build side matching everything keeps every probe row admissible, so
	// the 2-row merge window leaves real cursors open mid-probe.
	stmt := `V(R.K) On Coalition C SemiJoin V(R.V, (R.V >= 0)) On Coalition C;`

	// Warm up the lazily-built plumbing before taking the goroutine baseline.
	warm, err := s.Stream(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	for warm.Next() {
	}
	warm.Close()
	baseline := runtime.NumGoroutine()

	// Context cancel mid-probe.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Stream(ctx, stmt)
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

	// Rows.Close mid-probe, no cancel.
	rows, err = s.Stream(context.Background(), stmt)
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

	// Build-side failure: an unreachable quorum fails the statement before
	// the probe starts, and the build fan-out must still unwind cleanly.
	tune(nodes[0].Processor, func(o *query.Options) { o.MinMembers, o.MemberTimeout = 4, 0 })
	if _, err := s.Stream(context.Background(), stmt); err == nil {
		t.Fatal("semi-join succeeded with an unreachable build quorum")
	}
	tune(nodes[0].Processor, func(o *query.Options) { o.MinMembers, o.MemberTimeout = 1, 0 })
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("build-side failure left %d cursor(s) open", cursorsOpen())
	}
	if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// BenchmarkFederatedSemiJoin measures a selective federated semi-join with
// key pushdown on vs off over an all-Oracle coalition (every member takes
// the IN list) — and asserts, in the benchmark itself, that the pushdown
// moves at least 2x fewer probe-side rows.
func BenchmarkFederatedSemiJoin(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			// All-Oracle: every member takes the IN list. The fixture seeded
			// by advertised engine before this hook runs, so re-seed S2 (an
			// ObjectStore slot) relationally.
			_, nodes := planFederation(b, 3, func(i int, c *core.NodeConfig) {
				c.Engine = core.EngineOracle
				c.SeedObjects = nil
				var sb strings.Builder
				sb.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\n")
				for j := 0; j < planFixtureRows; j++ {
					fmt.Fprintf(&sb, "INSERT INTO r VALUES ('r%d%d', %d);\n", i, j, i*1000+j)
				}
				c.Schema = sb.String()
			})
			tune(nodes[0].Processor, func(o *query.Options) { o.DisableSemiJoin = !mode.on })
			s := nodes[0].NewSession()
			ctx := context.Background()

			// The build side alone moves this many rows in either mode; the
			// statement's RowsMoved beyond it is probe-side traffic.
			build, err := s.Execute(ctx, `V(R.V, (R.V >= 2000)) On Coalition C;`)
			if err != nil {
				b.Fatal(err)
			}
			offProbe := int64(3 * planFixtureRows) // filter-only mode scans every member whole

			b.ResetTimer()
			var moved int64
			for i := 0; i < b.N; i++ {
				resp, err := s.Execute(ctx, semiJoinStmt)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Result.Rows) != planFixtureRows {
					b.Fatalf("rows = %d", len(resp.Result.Rows))
				}
				probe := int64(resp.RowsMoved - build.RowsMoved)
				if mode.on && probe*2 > offProbe {
					b.Fatalf("semi-join pushdown moved %d probe rows, filter-only moves %d — less than the 2x win",
						probe, offProbe)
				}
				moved += probe
			}
			b.ReportMetric(float64(moved)/float64(b.N), "probe-rows-moved/op")
		})
	}
}
