package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// errPartial marks a degraded answer: some member failed or was skipped.
// It counts as a failed op, not a wrong one.
var errPartial = errors.New("partial answer")

// runner executes ops against a federation the way the browser API and the
// shell do: parse the WebTassili text, then Session.ExecuteStmt on a session
// of the op's home node. UPDATEs go through the home node's
// gateway.RemoteConn to the member's ISI servant.
type runner struct {
	fd *fed
	// tracer, when set, roots each op in a "bench.op" span (with a
	// "bench.parse" child around wtl.Parse) so every span the op causes, on
	// any ORB, joins one trace.
	tracer *trace.Tracer

	parseNS atomic.Int64
	parses  atomic.Int64
}

func (r *runner) exec(ctx context.Context, op *Op) (time.Time, error) {
	var root *trace.Span
	if r.tracer != nil {
		ctx, root = r.tracer.StartSpan(ctx, "bench.op")
	}
	o := r.call(ctx, op)
	done := time.Now()
	root.End(o.err)
	if o.err != nil {
		return done, o.err
	}
	if o.resp != nil && o.resp.Partial {
		return done, errPartial
	}
	return done, r.fd.d.check(op, o.resp, o.sess, o.res)
}

type outcome struct {
	resp *query.Response
	sess *query.Session
	res  *gateway.Result
	err  error
}

func (r *runner) call(ctx context.Context, op *Op) outcome {
	if op.Kind == opUpdate {
		res, err := r.fd.conns[op.Node].Exec(ctx, op.Text)
		return outcome{res: res, err: err}
	}
	sess := r.fd.nodes[op.Node].NewSession()
	if op.Kind == opJoin || op.Kind == opLeave {
		lane := r.fd.spare
		lane.wait(op.Ticket)
		defer lane.done()
		sess = lane.sess
	}
	stmt, err := r.parse(ctx, op.Text)
	if err != nil {
		return outcome{err: err}
	}
	resp, err := sess.ExecuteStmt(ctx, stmt)
	return outcome{resp: resp, sess: sess, err: err}
}

func (r *runner) parse(ctx context.Context, text string) (wtl.Stmt, error) {
	var sp *trace.Span
	if r.tracer != nil {
		_, sp = r.tracer.StartSpan(ctx, "bench.parse")
	}
	t0 := time.Now()
	stmt, err := wtl.Parse(text)
	r.parseNS.Add(int64(time.Since(t0)))
	r.parses.Add(1)
	sp.End(err)
	return stmt, err
}
