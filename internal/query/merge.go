package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/trace"
)

// Streaming coalition merge. Each member's rows flow through a bounded
// channel (backpressure instead of buffering whole result sets); the
// coordinator consumes the channels strictly in member order, so the merged
// output is deterministic regardless of member timing. Members are read
// through the gateway cursor protocol (Conn.QueryCursor), so backpressure
// reaches the wire: a member issues its next fetch only after the merge has
// drained the previous MergeBufRows window. A statement LIMIT terminates the
// fan-out early: once K rows are merged the remaining members' sub-calls are
// cancelled (closing their server-side cursors) and their statuses report
// ErrClass "limit" — satisfied, not degraded.

// errLimitSatisfied is the fan-out cancel cause once a statement LIMIT is
// met; errStreamClosed is the cause when the consumer abandons the stream.
// Members cancelled for either reason completed their part of the statement:
// their sub-call errors are not failures.
var (
	errLimitSatisfied = errors.New("query: limit satisfied")
	errStreamClosed   = errors.New("query: stream closed")
)

// mergeCancelled reports whether the member context was cancelled by the
// merge itself (limit satisfied, stream closed) rather than by the caller.
func mergeCancelled(ctx context.Context) bool {
	cause := context.Cause(ctx)
	return errors.Is(cause, errLimitSatisfied) || errors.Is(cause, errStreamClosed)
}

// isCapabilityRejection reports whether a member error looks like the engine
// rejecting a clause the planner pushed (dialect gate or grammar error)
// rather than a transport or data failure. Engine errors cross the ISI
// boundary as plain messages (UserException bodies), so a shape match covers
// both local and remote members:
//
//	relational: mSQL does not support LIKE
//	oodb: unexpected "LIMIT" after query
func isCapabilityRejection(err error) bool {
	if err == nil {
		return false
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "does not support") || strings.Contains(msg, "unexpected")
}

// mergeStream is one pull-based coalition merge in flight. The consumer
// calls Next to receive merged rows in member order and Close to release
// the fan-out (cancelling outstanding sub-calls and their cursors). It is
// the engine under both Session.Execute (which drains it) and Session.Stream
// (which hands it to the caller behind a Rows). Not safe for concurrent use.
type mergeStream struct {
	sess     *Session
	opts     *Options // the opening statement's snapshot
	plan     *queryPlan
	chans    []chan []idl.Any
	statuses []MemberStatus
	colNames []string
	cancel   context.CancelCauseFunc
	fanDone  chan struct{}

	// limit is the effective row cap (plan.Limit normally). A semi-join
	// probe decouples it from the plan: the cached plan carries no limit
	// (a member-side LIMIT under a coordinator filter would under-fetch)
	// while the merge still terminates early on post-filter rows.
	limit int
	// filter, when set, admits rows by result value before they count or
	// ship — the semi-join key filter. Rejected rows are fetched (they show
	// in rowsMoved) but never buffered, delivered or counted toward limit.
	filter *semiJoinFilter
	// overrides, when set, replaces member i's planned execution — the
	// semi-join probe's per-statement IN rendering. nil entries run Exec.
	overrides []*fragmentExec

	cur       int   // channel currently being drained
	delivered []int // rows emitted per member
	progress  int   // rows counted toward the LIMIT (failed members refunded)
	stop      int   // member index that satisfied the LIMIT (-1: none)
	eof       bool
	closed    bool

	rowsMoved   atomic.Int64 // rows fetched from members, pre-compensation
	fallbacks   atomic.Int64 // bare-fragment retries after a pushdown rejection
	probePruned atomic.Int64 // rows rejected by the semi-join key filter
	sjFallbacks atomic.Int64 // bare retries of fragments that carried a key set

	// inflight counts rows sitting in the merge channels (pulled from a
	// member's cursor, not yet consumed); peakInflight is its high-water
	// mark. Together with the per-member cursor batch (MergeBufRows rows at
	// most) it bounds coordinator buffering: peakInflight never exceeds
	// members x MergeBufRows, whatever the scan size.
	inflight     atomic.Int64
	peakInflight atomic.Int64
}

// newMergeStream fans the plan out and returns the pull side of the merge.
// Each merged row is [source, result-column]; residual conjuncts are applied
// (and the projection narrowed) in the worker, before the channel send, so
// backpressure is paid only for rows that will be delivered.
func (s *Session) newMergeStream(ctx context.Context, plan *queryPlan) *mergeStream {
	return s.newMergeStreamFiltered(ctx, plan, plan.Limit, nil, nil)
}

// newMergeStreamFiltered is newMergeStream with the semi-join hooks: an
// effective limit decoupled from the cached plan, a coordinator-side key
// filter, and per-member execution overrides carrying pushed key sets.
func (s *Session) newMergeStreamFiltered(ctx context.Context, plan *queryPlan, limit int, filter *semiJoinFilter, overrides []*fragmentExec) *mergeStream {
	n := len(plan.Members)
	ms := &mergeStream{
		sess:      s,
		opts:      s.opts,
		plan:      plan,
		chans:     make([]chan []idl.Any, n),
		statuses:  make([]MemberStatus, n),
		colNames:  make([]string, n),
		fanDone:   make(chan struct{}),
		delivered: make([]int, n),
		stop:      -1,
		limit:     limit,
		filter:    filter,
		overrides: overrides,
	}
	for i := range plan.Members {
		ms.statuses[i] = MemberStatus{Member: plan.Members[i].D.Name, Ref: plan.Members[i].D.ISIRef,
			ErrClass: "skipped", Err: "not dispatched"}
	}
	for i := range ms.chans {
		ms.chans[i] = make(chan []idl.Any, ms.opts.MergeBufRows)
	}
	mergeCtx, cancel := context.WithCancelCause(ctx)
	ms.cancel = cancel
	dispatched := make([]atomic.Bool, n)
	go func() {
		defer close(ms.fanDone)
		fanOutCtx(mergeCtx, n, ms.opts.FanOut, func(i int) {
			dispatched[i].Store(true)
			defer close(ms.chans[i])
			s.runMember(mergeCtx, ms, i)
		})
		// Members the fan-out never dispatched (context cancelled first)
		// still need their channels closed so the merge loop can pass them.
		for i := range ms.chans {
			if !dispatched[i].Load() {
				close(ms.chans[i])
			}
		}
	}()
	return ms
}

// Next returns the next merged row ([source, value]) and the index of the
// member that produced it; ok is false once the merge is exhausted or the
// statement LIMIT has been satisfied. A member's status is final by the time
// Next moves past its channel, which is what makes the refund below — and
// reading statuses after Close — race-free.
func (ms *mergeStream) Next() (row []idl.Any, member int, ok bool) {
	if ms.eof || ms.closed {
		return nil, 0, false
	}
	for ms.cur < len(ms.chans) {
		r, open := <-ms.chans[ms.cur]
		if !open {
			st := &ms.statuses[ms.cur]
			if !st.OK() && ms.delivered[ms.cur] > 0 {
				// The member failed mid-stream after delivering rows. A
				// materialized merge would have dropped the member whole, so
				// refund its rows from the LIMIT progress; the drain side
				// drops the rows themselves by provenance.
				ms.progress -= ms.delivered[ms.cur]
			}
			ms.cur++
			continue
		}
		ms.inflight.Add(-1)
		m := ms.cur
		ms.delivered[m]++
		ms.progress++
		if ms.limit > 0 && ms.progress >= ms.limit {
			ms.stop = m
			ms.eof = true
			ms.cancel(errLimitSatisfied) // release the members still running or queued
		}
		return r, m, true
	}
	ms.eof = true
	return nil, 0, false
}

// Close abandons or finalises the stream: outstanding member sub-calls are
// cancelled (closing their server-side cursors), the fan-out is awaited, and
// post-LIMIT statuses are patched. Statuses, counters and the peak-buffer
// gauge are stable once Close returns. Idempotent.
func (ms *mergeStream) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	ms.cancel(errStreamClosed)
	<-ms.fanDone
	if ms.stop >= 0 {
		// Early termination: everything after the member that satisfied the
		// limit is reported as cut off by it, whatever its sub-call was
		// doing when the cancel landed — keeping the statuses (and thus the
		// Partial bit) deterministic across timings and pushdown modes.
		for j := ms.stop + 1; j < len(ms.statuses); j++ {
			ms.statuses[j] = MemberStatus{Member: ms.plan.Members[j].D.Name, Ref: ms.plan.Members[j].D.ISIRef,
				ErrClass: "limit", Err: "limit satisfied"}
		}
	}
}

// mergedColumns names the merged result's columns from the first member that
// answered. Valid after Close.
func (ms *mergeStream) mergedColumns() []string {
	for i := range ms.colNames {
		if ms.colNames[i] != "" && ms.statuses[i].OK() {
			return []string{"source", ms.colNames[i]}
		}
	}
	return nil
}

// runMember executes one member's fragment and streams its compensated,
// projected rows into the merge. The fragment runs through the gateway
// cursor protocol, pulling MergeBufRows rows per fetch; the bounded channel
// send between pulls is what propagates the coordinator's pace back to the
// wire. On a capability rejection of a pushed clause (the descriptor's
// engine claim was stale) it retries once with the bare fragment and full
// coordinator-side compensation.
func (s *Session) runMember(ctx context.Context, ms *mergeStream, i int) {
	plan := ms.plan
	mp := &plan.Members[i]
	st := &ms.statuses[i]
	mctx, msp := trace.StartSpan(ctx, "query.member:"+mp.D.Name)
	msp.SetAttr("engine", mp.D.Engine)
	msp.SetAttrInt("pushed", mp.Exec.Pushed)
	msp.SetAttrInt("compensated", len(mp.Exec.Residual))
	if mp.Exec.LimitPushed {
		msp.SetAttr("limit", "pushed")
	}
	if mt := time.Duration(ms.opts.MemberTimeout); mt > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(mctx, mt)
		defer cancel()
	}
	mctx, cs := orb.WithCallStats(mctx)
	start := time.Now()
	var err error
	defer func() {
		st.Latency = time.Since(start)
		st.Attempts = int(cs.Attempts.Load())
		if err != nil && mergeCancelled(ctx) {
			// The merge stopped taking rows (limit satisfied downstream,
			// stream closed); whatever the cancel did to the sub-call is not
			// a member failure.
			err = nil
		}
		if err != nil {
			st.ErrClass = classifyErr(err)
			st.Err = err.Error()
			s.tracef("data", "member %s failed (%s): %v", mp.D.Name, st.ErrClass, err)
		} else {
			st.ErrClass, st.Err = "", ""
		}
		msp.End(err)
	}()
	conn, err := s.p.openSource(s, mp.D)
	if err != nil {
		return
	}
	defer conn.Close()
	ex := &mp.Exec
	if ms.overrides != nil && ms.overrides[i] != nil {
		ex = ms.overrides[i]
		msp.SetAttr("semijoin", "keys pushed")
	}
	var it gateway.RowIter
	it, err = conn.QueryCursor(mctx, ex.Native, ms.opts.MergeBufRows)
	if err != nil && (ex.Pushed > 0 || ex.LimitPushed || ex.InPushed) && isCapabilityRejection(err) && mctx.Err() == nil {
		s.tracef("data", "member %s rejected pushed fragment (%v); retrying with full compensation", mp.D.Name, err)
		msp.SetAttr("fallback", "bare")
		ms.fallbacks.Add(1)
		if ex.InPushed {
			ms.sjFallbacks.Add(1)
		}
		ex = mp.bare()
		it, err = conn.QueryCursor(mctx, ex.Native, ms.opts.MergeBufRows)
	}
	if err != nil {
		err = fmt.Errorf("query: %s: %w", mp.D.Name, err)
		return
	}
	defer it.Close()
	if cols := it.Columns(); len(cols) > 0 {
		ms.colNames[i] = cols[0]
	} else {
		ms.colNames[i] = mp.Fn.ResultColumn
	}
	name := idl.String(mp.D.Name)
	for {
		var row []idl.Any
		row, err = it.Next(mctx)
		if err == io.EOF {
			err = nil
			return
		}
		if err != nil {
			err = fmt.Errorf("query: %s: %w", mp.D.Name, err)
			return
		}
		ms.rowsMoved.Add(1)
		if len(row) == 0 {
			continue
		}
		if len(ex.Residual) > 0 && !residualMatch(row, ex) {
			continue
		}
		if ms.filter != nil && !ms.filter.admit(row[0]) {
			// The row's key is not in the build side (or it is a Bloom false
			// positive the exact set rejects): the semi-join drops it here,
			// before it can occupy the merge window or count toward LIMIT.
			ms.probePruned.Add(1)
			continue
		}
		select {
		case ms.chans[i] <- []idl.Any{name, row[0]}:
			n := ms.inflight.Add(1)
			for {
				p := ms.peakInflight.Load()
				if n <= p || ms.peakInflight.CompareAndSwap(p, n) {
					break
				}
			}
		case <-ctx.Done():
			// The query itself succeeded; the merge just stopped taking
			// rows (limit satisfied downstream). Not a member failure.
			return
		}
	}
}
