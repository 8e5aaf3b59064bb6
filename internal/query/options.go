package query

import (
	"encoding/json"
	"time"
)

// Options are the planner and fan-out knobs of one processor. Each JSON tag
// is the node-config key that sets it (core.NodeConfig embeds Options), so
// this struct is the one declaration of every knob. Zero values select the
// defaults withDefaults resolves.
type Options struct {
	// FanOut bounds the worker pool used to contact coalition members in
	// parallel (peer discovery, coalition query decomposition, membership
	// maintenance). 0 selects the default width (2×GOMAXPROCS, min 8);
	// 1 forces the serial pre-parallel behaviour. Not a node-config key.
	FanOut int `json:"-"`
	// MinMembers is the quorum for coalition query decomposition: the
	// statement succeeds (possibly partially) when at least this many members
	// answer, and fails otherwise. 0 means 1 — any surviving member yields a
	// partial result.
	MinMembers int `json:"min_members"`
	// MemberTimeout bounds each member's sub-call (and each discovery peer
	// probe) so one slow member cannot hold the whole fan-out. 0 leaves only
	// the caller's context deadline and the ORB's CallTimeout.
	MemberTimeout Millis `json:"member_timeout_ms"`
	// DisablePushdown turns predicate/limit pushdown off: every member runs
	// the bare fragment and the coordinator compensates for all predicates
	// locally. Both modes return identical answers (the differential tests
	// in internal/simtest run the same workload both ways); pushdown only
	// moves where predicates are evaluated and how many rows cross the wire.
	DisablePushdown bool `json:"disable_pushdown"`
	// MergeBufRows bounds each member's streaming-merge channel: how many
	// rows a member may run ahead of the coordinator before backpressure.
	// It is also the cursor batch size member sub-queries fetch with, so
	// coordinator buffering for a coalition scan is bounded by
	// members x 2 x MergeBufRows rows regardless of result size.
	// 0 selects the default (64).
	MergeBufRows int `json:"merge_buf_rows"`
	// DisableSemiJoin turns semi-join key pushdown off: join statements still
	// execute (the coordinator always applies the exact key filter), but no
	// key set is shipped to probe members and no Bloom filter is built. Both
	// modes return identical answers (the differential tests in
	// internal/simtest run the same workload both ways); the pushdown only
	// changes how many probe-side rows cross the wire.
	DisableSemiJoin bool `json:"disable_semijoin"`
	// SemiJoinKeyLimit is the largest build-side key set pushed to probe
	// members as a literal IN list; above it the coordinator compresses the
	// set into a Bloom prefilter instead. 0 selects the default (64).
	SemiJoinKeyLimit int `json:"semijoin_key_limit"`
	// SubCoalitionSize is the coalition membership size above which stage-3
	// discovery routes through sub-coalition representatives instead of
	// probing every member directly: coalitions larger than this shard into
	// windows of at most this many members, and one relay_probe call per
	// shard replaces the per-member fan-out. Coalitions at or below the
	// threshold keep the flat fan-out (the paper's small-coalition model is
	// untouched). 0 selects the default (32); negative disables hierarchical
	// routing entirely. Both modes return identical answers — the
	// differential tests in internal/simtest run the same workload both ways;
	// routing only changes how many RPCs the coordinator itself issues.
	SubCoalitionSize int `json:"subcoalition_size"`
}

// withDefaults resolves the zero values to their defaults. It is idempotent,
// so Processor.Options can hand its result back to SetOptions.
func (o Options) withDefaults() Options {
	if o.MinMembers <= 0 {
		o.MinMembers = 1
	}
	if o.MergeBufRows <= 0 {
		o.MergeBufRows = 64
	}
	if o.SemiJoinKeyLimit <= 0 {
		o.SemiJoinKeyLimit = 64
	}
	if o.SubCoalitionSize == 0 {
		o.SubCoalitionSize = 32
	}
	return o
}

// Millis is a duration that node-config JSON carries as a whole number of
// milliseconds (the "_ms" keys).
type Millis time.Duration

// UnmarshalJSON reads an integer millisecond count.
func (m *Millis) UnmarshalJSON(b []byte) error {
	var ms int64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	*m = Millis(time.Duration(ms) * time.Millisecond)
	return nil
}
