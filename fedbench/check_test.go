package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/query"
)

func rowsResult(rs []row) *gateway.Result {
	res := &gateway.Result{Columns: []string{"source", "val"}}
	for _, r := range rs {
		res.Rows = append(res.Rows, []idl.Any{idl.String(r.src), idl.Long(r.val)})
	}
	return res
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// TestCheckerCatchesCorruptAnswers feeds the checker the expected answer and
// then corrupted copies of it: a changed value, a missing row, a row from
// the wrong member, a top-K row outside its group, an extra discovery lead.
func TestCheckerCatchesCorruptAnswers(t *testing.T) {
	d, err := newDataset(wlChurn, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(d, 7, true)
	sel := s.sel(20)
	want := d.expectRange(sel.A, sel.W, false, nil)
	if err := d.check(sel, &query.Response{Result: rowsResult(want)}, nil, nil); err != nil {
		t.Fatalf("expected answer rejected: %v", err)
	}
	corrupt := map[string][]row{
		"value":  append([]row{{want[0].src, want[0].val + 1}}, want[1:]...),
		"short":  want[1:],
		"source": append([]row{{"S9", want[0].val}}, want[1:]...),
	}
	for name, rs := range corrupt {
		if err := d.check(sel, &query.Response{Result: rowsResult(rs)}, nil, nil); !isWrong(err) {
			t.Errorf("%s corruption: got %v, want a wrong answer", name, err)
		}
	}

	topk := s.topkOf(3, 10)
	var group []row
	for _, m := range d.scanMembers() {
		for _, id := range d.Nodes[m].Obs.byGrp[3] {
			group = append(group, row{d.Nodes[m].Name, int64(d.Nodes[m].Obs.val[id])})
		}
	}
	if err := d.check(topk, &query.Response{Result: rowsResult(group[:10])}, nil, nil); err != nil {
		t.Fatalf("top-K answer rejected: %v", err)
	}
	outside := append([]row{{group[0].src, -1}}, group[1:10]...)
	if err := d.check(topk, &query.Response{Result: rowsResult(outside)}, nil, nil); !isWrong(err) {
		t.Errorf("top-K row outside the group: got %v, want a wrong answer", err)
	}

	dd, err := newDataset(wlDiscovery, 7)
	if err != nil {
		t.Fatal(err)
	}
	find := newStream(dd, 7, true).find()
	var leads []query.Lead
	for _, l := range dd.expectFind(find.Node, find.Name) {
		leads = append(leads, query.Lead{Coalition: l.name, Score: l.score})
	}
	if err := dd.check(find, &query.Response{Leads: leads}, nil, nil); err != nil {
		t.Fatalf("expected leads rejected: %v", err)
	}
	extra := append(leads, query.Lead{Coalition: "Nowhere", Score: 1})
	if err := dd.check(find, &query.Response{Leads: extra}, nil, nil); !isWrong(err) {
		t.Errorf("extra lead: got %v, want a wrong answer", err)
	}
}

// TestRunCatchesCorruptedEngine runs real statements through a federation,
// then changes a row behind the program's back: the next answer that
// includes the row must fail the check as wrong, not as a failed op.
func TestRunCatchesCorruptedEngine(t *testing.T) {
	d, err := newDataset(wlChurn, 3)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := buildFed(d)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.close()
	r := &runner{fd: fd}
	op := newStream(d, 3, true).sel(20)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := r.exec(ctx, op); err != nil {
		t.Fatalf("%s: %v", op.Text, err)
	}
	if _, err := fd.nodes[0].RelDB.Exec(fmt.Sprintf("UPDATE obs SET val = val + 1 WHERE id = %d", op.A)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.exec(ctx, op); !isWrong(err) {
		t.Fatalf("%s after corrupting a row: got %v, want a wrong answer", op.Text, err)
	}
}

// TestTeardownReturnsToBaseline boots and tears down federations twice in
// one process, with gossip running and ops in between: each teardown must
// find no call in flight and no open cursor, and return to the goroutine
// baseline.
func TestTeardownReturnsToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d, err := newDataset(wlChurn, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		fd, err := buildFed(d)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{fd: fd}
		s := newStream(d, 5, false)
		for k := 0; k < 40; k++ {
			op := s.next()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			_, err := r.exec(ctx, op)
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", op.Text, err)
			}
		}
		start := time.Now()
		if err := fd.teardown(baseline); err != nil {
			t.Fatal(err)
		}
		t.Logf("teardown %d took %v", i, time.Since(start))
	}
}
