package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// Lead is one discovery result offered to the user for selection, with the
// provenance information WebFINDIT uses to educate the user ("the system
// prompts the user to select the most interesting leads").
type Lead struct {
	Coalition string
	Score     float64
	Via       string // "local", "link:<name>", "peer:<database>"
	CoDBRef   string // co-database able to expand this lead ("" = local)
}

// Response is the outcome of one WebTassili statement. Text always carries
// a human-readable rendering; the typed fields carry the structured payload
// of the statement kind that produced it.
type Response struct {
	Stmt       wtl.Stmt
	Text       string
	Leads      []Lead
	Names      []string
	Sources    []*codb.SourceDescriptor
	Descriptor *codb.SourceDescriptor
	DocURL     string
	DocHTML    string
	Result     *gateway.Result
	Translated string // native query produced by the wrapper
	// RowsMoved counts the rows fetched from data sources to answer the
	// statement, before coordinator-side compensation and merging — the
	// cost pushdown and top-K early termination exist to shrink.
	RowsMoved int

	// Members reports the per-member outcome of every sub-call the statement
	// fanned out (coalition query decomposition, discovery peer probes) —
	// healthy and failed members alike, in member order.
	Members []MemberStatus
	// Partial is true when some fanned-out member failed or was skipped but
	// enough members answered for the statement to return a degraded result.
	Partial bool
}

// MemberStatus is the outcome of one coalition member's (or discovery
// peer's) sub-call within a statement.
type MemberStatus struct {
	Member   string        // member database name
	Ref      string        // reference contacted (ISI or co-database; "" = local)
	Attempts int           // transport attempts, transparent retries included
	Latency  time.Duration // wall-clock time this member's sub-call took
	ErrClass string        // "", "timeout", "comm", "breaker", "system", "user", "skipped", "limit"
	Err      string        // error message ("" on success)
	// Cached is true when the sub-call was answered from the metadata cache
	// (a hit, or coalesced onto another caller's in-flight fetch) without
	// its own probe fan-out.
	Cached bool
	// Stale is true when the member was unreachable (down, circuit-broken)
	// and an expired cache entry was served as the degraded answer.
	Stale bool
}

// OK reports whether the member answered.
func (m MemberStatus) OK() bool { return m.ErrClass == "" }

// classifyErr buckets a member failure for MemberStatus.ErrClass.
func classifyErr(err error) string {
	if err == nil {
		return ""
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		switch se.Name {
		case orb.ExcTransient:
			return "breaker"
		case orb.ExcCommFailure:
			if strings.Contains(se.Detail, "timed out") || strings.Contains(se.Detail, "context") {
				return "timeout"
			}
			return "comm"
		default:
			return "system"
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return "timeout"
	}
	return "user"
}

// Config wires a query processor to its node.
type Config struct {
	ORB  *orb.ORB
	Home string // home database name (users are users of a member database)
	// HomeDescriptor is advertised by Join Coalition statements.
	HomeDescriptor *codb.SourceDescriptor
	// Local is the client of the node's own co-database servant.
	Local *codb.Client
	// LocalCoDB, when the co-database is in-process, enables maintenance
	// statements (Create Coalition / Create Service Link) that the remote
	// interface intentionally restricts.
	LocalCoDB *codb.CoDatabase
	// Gateway opens DSN connections for sources without an ISI reference.
	Gateway *gateway.Manager
	// Cache, when set, caches federation metadata (coalition member lists,
	// source descriptors, peer probe results) across statements and
	// sessions. Data queries are never cached. nil disables caching.
	Cache *mdcache.Cache
	// Options are the planner and fan-out knobs the processor starts with;
	// Processor.SetOptions replaces them at runtime.
	Options
	// Alive reports whether a peer node is believed reachable — the gossip
	// layer's failure detector, consulted by representative election so a
	// partitioned representative is skipped instead of timed out against.
	// nil treats every peer as alive.
	Alive func(node string) bool
}

// PlannerStats counts federated-planner and streaming-merge activity.
// Fields are cumulative since the processor was created; read them through
// Processor.PlannerStats.
type PlannerStats struct {
	Plans                int64 // coalition plans executed (cache hits included)
	PlanCacheHits        int64 // plans served from the metadata cache
	FragmentsPushed      int64 // predicate conjuncts shipped inside fragments
	FragmentsCompensated int64 // conjuncts evaluated at the coordinator
	LimitPushed          int64 // fragments that carried the statement LIMIT
	EarlyTerminations    int64 // fan-outs cancelled once the LIMIT was satisfied
	Fallbacks            int64 // bare-fragment retries after a pushdown rejection
	RowsMoved            int64 // rows fetched from members, pre-compensation
	RowsDelivered        int64 // rows returned to callers after merge/limit
	PeakMergeBuffered    int64 // most rows ever held in merge channels at once
	SemiJoins            int64 // coalition statements carrying a SemiJoin clause
	KeysPushed           int64 // build-side keys shipped to probe members in IN lists
	BloomPushed          int64 // semi-joins whose key set compressed to a Bloom filter
	ProbeRowsPruned      int64 // probe rows discarded by the coordinator key filter
	SemiJoinFallbacks    int64 // bare-fragment retries of rejected IN pushes
	RelayShards          int64 // sub-coalition shards routed through a representative
	RelayedProbes        int64 // member probes answered via a representative relay
	RelayFailovers       int64 // relay attempts abandoned for the next candidate
	RelayDirectFallbacks int64 // shards probed directly after every relay candidate failed
}

// plannerCounters is the processor's live (atomic) form of PlannerStats.
type plannerCounters struct {
	plans, planCacheHits                  atomic.Int64
	fragmentsPushed, fragmentsCompensated atomic.Int64
	limitPushed, earlyTerminations        atomic.Int64
	fallbacks, rowsMoved, rowsDelivered   atomic.Int64
	peakMergeBuffered                     atomic.Int64
	semiJoins, keysPushed, bloomPushed    atomic.Int64
	probeRowsPruned, semiJoinFallbacks    atomic.Int64
	relayShards, relayedProbes            atomic.Int64
	relayFailovers, relayDirectFallbacks  atomic.Int64
}

// raisePeak lifts the peak-merge-buffered gauge to v if it is higher than the
// recorded high-water mark.
func (c *plannerCounters) raisePeak(v int64) {
	for {
		p := c.peakMergeBuffered.Load()
		if v <= p || c.peakMergeBuffered.CompareAndSwap(p, v) {
			return
		}
	}
}

// Processor is the query layer of one WebFINDIT node.
type Processor struct {
	cfg Config

	// opts is the live planner and fan-out policy (SetOptions). Each
	// statement loads it once when it starts and runs under that snapshot,
	// so a concurrent change never splits one statement across two modes.
	opts atomic.Pointer[Options]

	stats plannerCounters

	// Memoized co-database clients keyed by stringified IOR, so the hot
	// discovery paths do not re-parse IORs and re-build clients on every
	// statement. Clients are stateless handles; sharing them is safe.
	clientMu sync.Mutex
	clients  map[string]*codb.Client

	// Memoized cache-key prefixes (srcKey) per canonical client: rendering
	// an IOR address hex-encodes the object key, which profiling shows is
	// the top allocator on a fully cached discovery, so it is paid once per
	// client instead of once per lookup.
	srcKeys sync.Map // *codb.Client -> string
}

// New creates a processor; ORB, Home and Local are required.
func New(cfg Config) (*Processor, error) {
	if cfg.ORB == nil || cfg.Local == nil || cfg.Home == "" {
		return nil, fmt.Errorf("query: Config needs ORB, Local and Home")
	}
	p := &Processor{cfg: cfg, clients: make(map[string]*codb.Client)}
	p.SetOptions(cfg.Options)
	return p, nil
}

// SetOptions replaces the planner and fan-out options, resolving their
// defaults. Safe to call concurrently with running sessions: statements
// already running keep the snapshot they started under.
func (p *Processor) SetOptions(o Options) {
	o = o.withDefaults()
	p.opts.Store(&o)
}

// Options returns the current options, defaults resolved.
func (p *Processor) Options() Options { return *p.opts.Load() }

// alive consults the gossip failure detector; without one every peer is
// presumed reachable.
func (p *Processor) alive(node string) bool {
	if p.cfg.Alive == nil {
		return true
	}
	return p.cfg.Alive(node)
}

// PlannerStats snapshots the planner and streaming-merge counters.
func (p *Processor) PlannerStats() PlannerStats {
	return PlannerStats{
		Plans:                p.stats.plans.Load(),
		PlanCacheHits:        p.stats.planCacheHits.Load(),
		FragmentsPushed:      p.stats.fragmentsPushed.Load(),
		FragmentsCompensated: p.stats.fragmentsCompensated.Load(),
		LimitPushed:          p.stats.limitPushed.Load(),
		EarlyTerminations:    p.stats.earlyTerminations.Load(),
		Fallbacks:            p.stats.fallbacks.Load(),
		RowsMoved:            p.stats.rowsMoved.Load(),
		RowsDelivered:        p.stats.rowsDelivered.Load(),
		PeakMergeBuffered:    p.stats.peakMergeBuffered.Load(),
		SemiJoins:            p.stats.semiJoins.Load(),
		KeysPushed:           p.stats.keysPushed.Load(),
		BloomPushed:          p.stats.bloomPushed.Load(),
		ProbeRowsPruned:      p.stats.probeRowsPruned.Load(),
		SemiJoinFallbacks:    p.stats.semiJoinFallbacks.Load(),
		RelayShards:          p.stats.relayShards.Load(),
		RelayedProbes:        p.stats.relayedProbes.Load(),
		RelayFailovers:       p.stats.relayFailovers.Load(),
		RelayDirectFallbacks: p.stats.relayDirectFallbacks.Load(),
	}
}

// Session is one user's interactive context: the coalition they are
// connected to and the source they last selected. Sessions are not safe for
// concurrent use by multiple callers, but statements internally fan out to
// coalition members in parallel, so the trace buffer is mutex-protected.
type Session struct {
	p *Processor

	// Coalition is the currently connected coalition ("" before Connect).
	Coalition string
	// Source is the currently selected information source.
	Source string

	codbClient *codb.Client // co-database answering for the current coalition
	// opts is the options snapshot of the running statement, loaded when it
	// starts (markStmtStart). Only the statement's own goroutines read it;
	// a merge stream that outlives its statement keeps its own copy.
	opts      *Options
	traceMu   sync.Mutex
	trace     []TraceEvent
	stmtStart time.Time // start of the running statement (guards under traceMu)
}

// NewSession opens a session rooted at the node's local co-database.
func (p *Processor) NewSession() *Session {
	return &Session{p: p, codbClient: p.cfg.Local, opts: p.opts.Load()}
}

// TraceEvent is one entry of a session's layer trace: which layer spoke,
// what it did, and how far into the statement it happened.
type TraceEvent struct {
	Layer   string // "query", "communication", "meta-data", "data"
	Msg     string
	Elapsed time.Duration // time since the statement started
}

// String renders the event in the classic "<layer> layer: <msg>" form the
// browser UI and the shell print.
func (e TraceEvent) String() string { return e.Layer + " layer: " + e.Msg }

// Trace returns the accumulated layer trace (query, communication,
// meta-data, data) and clears it.
func (s *Session) Trace() []TraceEvent {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t := s.trace
	s.trace = nil
	return t
}

func (s *Session) tracef(layer, format string, args ...any) {
	s.traceMsg(layer, fmt.Sprintf(format, args...))
}

// traceMsg appends a preformatted trace line. Hot paths that repeat fixed
// messages (cache-served discovery stages) use it to skip fmt formatting.
func (s *Session) traceMsg(layer, msg string) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	var elapsed time.Duration
	if !s.stmtStart.IsZero() {
		elapsed = time.Since(s.stmtStart)
	}
	if s.trace == nil {
		// Trace() hands the buffer to the caller, so every statement starts
		// from nil; size the fresh buffer for a typical statement instead of
		// growing it append by append.
		s.trace = make([]TraceEvent, 0, 16)
	}
	s.trace = append(s.trace, TraceEvent{Layer: layer, Msg: msg, Elapsed: elapsed})
}

// markStmtStart anchors TraceEvent.Elapsed for the statement about to run
// and loads the options snapshot it runs under.
func (s *Session) markStmtStart() {
	s.opts = s.p.opts.Load()
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.stmtStart = time.Now()
}

// current returns the co-database client serving the session's context.
func (s *Session) current() *codb.Client {
	if s.codbClient != nil {
		return s.codbClient
	}
	return s.p.cfg.Local
}

// Execute parses and runs one WebTassili statement. Every ORB invocation the
// statement triggers — metadata lookups, peer probes, coalition fan-out,
// gateway/ISI calls — joins the caller's trace, and the context's deadline
// and cancellation bound the statement.
func (s *Session) Execute(ctx context.Context, src string) (*Response, error) {
	s.markStmtStart()
	stmt, err := wtl.Parse(src)
	if err != nil {
		return nil, err
	}
	s.tracef("query", "parsed %T", stmt)
	return s.execTimed(ctx, stmt)
}

// ExecuteStmt runs one parsed statement under a caller context. The whole
// statement runs inside a "query:<StmtType>" span; every stage below parents
// onto it.
func (s *Session) ExecuteStmt(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	s.markStmtStart()
	return s.execTimed(ctx, stmt)
}

func (s *Session) execTimed(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	ctx, sp := trace.StartSpan(ctx, stmtSpanName(stmt))
	resp, err := s.execStmt(ctx, stmt)
	sp.End(err)
	return resp, err
}

// stmtSpanName maps a statement to its span name without reflection or
// formatting (execTimed runs per statement, so this is on the hot path).
func stmtSpanName(stmt wtl.Stmt) string {
	switch stmt.(type) {
	case *wtl.FindCoalitions:
		return "query:FindCoalitions"
	case *wtl.Connect:
		return "query:Connect"
	case *wtl.DisplayCoalitions:
		return "query:DisplayCoalitions"
	case *wtl.DisplayLinks:
		return "query:DisplayLinks"
	case *wtl.DisplaySubClasses:
		return "query:DisplaySubClasses"
	case *wtl.DisplayInstances:
		return "query:DisplayInstances"
	case *wtl.DisplayDocument:
		return "query:DisplayDocument"
	case *wtl.DisplayAccessInfo:
		return "query:DisplayAccessInfo"
	case *wtl.DisplayInterface:
		return "query:DisplayInterface"
	case *wtl.SearchType:
		return "query:SearchType"
	case *wtl.FuncQuery:
		return "query:FuncQuery"
	case *wtl.NativeQuery:
		return "query:NativeQuery"
	case *wtl.CreateCoalition:
		return "query:CreateCoalition"
	case *wtl.CreateLink:
		return "query:CreateLink"
	case *wtl.JoinCoalition:
		return "query:JoinCoalition"
	case *wtl.LeaveCoalition:
		return "query:LeaveCoalition"
	}
	return "query:" + strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*wtl.")
}

func (s *Session) execStmt(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	switch q := stmt.(type) {
	case *wtl.FindCoalitions:
		return s.execFind(ctx, q)
	case *wtl.Connect:
		return s.execConnect(ctx, q)
	case *wtl.DisplayCoalitions:
		return s.execCoalitions(ctx, q)
	case *wtl.DisplayLinks:
		return s.execLinks(ctx, q)
	case *wtl.DisplaySubClasses:
		return s.execSubClasses(ctx, q)
	case *wtl.DisplayInstances:
		return s.execInstances(ctx, q)
	case *wtl.DisplayDocument:
		return s.execDocument(ctx, q)
	case *wtl.DisplayAccessInfo:
		return s.execAccessInfo(ctx, q)
	case *wtl.DisplayInterface:
		return s.execInterface(ctx, q)
	case *wtl.SearchType:
		return s.execSearchType(ctx, q)
	case *wtl.FuncQuery:
		return s.execFuncQuery(ctx, q)
	case *wtl.NativeQuery:
		return s.execNativeQuery(ctx, q)
	case *wtl.CreateCoalition:
		return s.execCreateCoalition(q)
	case *wtl.CreateLink:
		return s.execCreateLink(q)
	case *wtl.JoinCoalition:
		return s.execJoin(ctx, q)
	case *wtl.LeaveCoalition:
		return s.execLeave(ctx, q)
	}
	return nil, fmt.Errorf("query: unsupported statement %T", stmt)
}

// ---- Discovery (the paper's resolution algorithm) ----

// execFind implements the three-stage resolution of §2: local coalitions
// first, then local service links, then the coalitions/links known to the
// other members of the local coalitions.
func (s *Session) execFind(ctx context.Context, q *wtl.FindCoalitions) (*Response, error) {
	leads, probes, err := s.p.resolveTopic(ctx, s, q.Topic)
	if err != nil {
		return nil, err
	}
	resp := &Response{Stmt: q, Leads: leads, Members: probes}
	for _, m := range probes {
		// A stale-served probe answered, but from an expired cache entry:
		// the result is usable yet degraded, so it is flagged partial too.
		if !m.OK() || m.Stale {
			resp.Partial = true
		}
	}
	if len(leads) == 0 {
		resp.Text = fmt.Sprintf("No coalitions found for information %q.", q.Topic)
		return resp, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Coalitions offering information %q:\n", q.Topic)
	for _, l := range leads {
		fmt.Fprintf(&b, "  - %s (score %.2f, via %s)\n", l.Coalition, l.Score, l.Via)
	}
	resp.Text = strings.TrimRight(b.String(), "\n")
	return resp, nil
}

// fullScore reports whether any lead matches every query token — the
// condition under which a resolution stage "answers the query" and no
// further escalation is needed.
func fullScore(leads []Lead) bool {
	for _, l := range leads {
		if l.Score >= 1.0 {
			return true
		}
	}
	return false
}

// resolveTopic runs the resolution algorithm and returns leads plus the
// per-peer outcome of the stage-3 probes. Stages escalate (local coalitions,
// then local service links, then coalition peers) until some stage produces
// a full match; weaker partial matches from earlier stages are kept as
// additional leads for the user to inspect. Each stage runs in its own span,
// and stage 3's fan-out opens a span per peer probed, so the trace shows
// where discovery time goes. An unreachable or slow peer does not fail the
// statement: its status records the error class and discovery degrades to
// the peers that answered.
func (p *Processor) resolveTopic(ctx context.Context, s *Session, topic string) ([]Lead, []MemberStatus, error) {
	local := p.cfg.Local
	var leads []Lead

	// Stage 1: coalitions in the local co-database. The communication line is
	// written after the lookup so it reflects what actually happened: a
	// cache-served stage performs no invocation, and its fixed trace line
	// skips fmt formatting on the repeat-discovery hot path.
	st1Ctx, st1 := trace.StartSpan(ctx, "query.stage:local-coalitions")
	matches, out1, err := p.cachedFindCoalitions(st1Ctx, local, topic)
	st1.SetAttr("cache", out1.String())
	st1.End(err)
	if err != nil {
		return nil, nil, fmt.Errorf("query: local co-database: %w", err)
	}
	if out1.Served() {
		s.traceMsg("communication", "find_coalitions answered by the metadata cache (local co-database)")
	} else {
		s.tracef("communication", "invoke find_coalitions(%q) on local co-database", topic)
	}
	s.traceMsg("meta-data", "local co-database scored "+strconv.Itoa(len(matches))+" coalition(s)")
	leads = append(leads, leadsFrom(matches, "")...)
	if fullScore(leads) {
		return sortLeads(leads), nil, nil
	}

	// Stage 2: service links known locally.
	st2Ctx, st2 := trace.StartSpan(ctx, "query.stage:local-links")
	links, out2, err := p.cachedFindLinks(st2Ctx, local, topic)
	st2.SetAttr("cache", out2.String())
	st2.End(err)
	if err != nil {
		return nil, nil, fmt.Errorf("query: local co-database links: %w", err)
	}
	if out2.Served() {
		s.traceMsg("communication", "find_links answered by the metadata cache (local co-database)")
	} else {
		s.tracef("communication", "invoke find_links(%q) on local co-database", topic)
	}
	s.traceMsg("meta-data", "local co-database scored "+strconv.Itoa(len(links))+" service link(s)")
	leads = append(leads, leadsFrom(links, "")...)
	if fullScore(leads) {
		return sortLeads(leads), nil, nil
	}

	// Stage 3: ask the other members of the local coalitions whether they
	// know a coalition or a service link for this topic. The member list is
	// assembled serially from local metadata (deterministic order,
	// deduplicated by co-database reference); the peers themselves are then
	// probed in parallel, so stage latency tracks the slowest peer instead
	// of the sum of all peers. Results are merged back in member order,
	// keeping lead ordering identical to the serial algorithm.
	st3Ctx, st3 := trace.StartSpan(ctx, "query.stage:coalition-peers")
	defer st3.End(nil)
	groups, _, err := p.cachedPeerGroups(st3Ctx, local)
	if err != nil {
		return nil, nil, err
	}
	// Flatten the groups into the flat target list (the order both routing
	// modes share), remembering which group each target entered through so
	// hierarchical routing can shard per coalition.
	var targets []peerTarget
	var groupOf []int
	for gi, g := range groups {
		for _, tgt := range g.Members {
			targets = append(targets, tgt)
			groupOf = append(groupOf, gi)
		}
	}
	probes := make([]peerProbe, len(targets))
	for i, tgt := range targets {
		probes[i] = peerProbe{name: tgt.Name, ref: tgt.Ref, peer: tgt.Peer}
	}
	statuses := make([]MemberStatus, len(probes))
	// Fast path: fresh cached probes are answered inline, skipping the
	// per-peer goroutine, span and call-stats scaffolding entirely; only the
	// peers without a fresh entry join the fan-out below.
	var pending []int
	for i := range probes {
		pr := &probes[i]
		if res, ok := p.peekProbe(pr.peer, topic); ok {
			pr.coals, pr.links = res.Coals, res.Links
			statuses[i] = MemberStatus{Member: pr.name, Ref: pr.ref, Cached: true}
			continue
		}
		statuses[i] = MemberStatus{Member: pr.name, Ref: pr.ref,
			ErrClass: "skipped", Err: "not dispatched"}
		s.tracef("communication", "invoke find_coalitions(%q) on peer co-database of %s", topic, pr.name)
		s.tracef("communication", "invoke find_links(%q) on peer co-database of %s", topic, pr.name)
		pending = append(pending, i)
	}
	if cachedN := len(probes) - len(pending); cachedN > 0 {
		s.traceMsg("communication", "peer probes answered by the metadata cache: "+
			strconv.Itoa(cachedN)+" of "+strconv.Itoa(len(probes)))
	}
	// Hierarchical routing: shards of large coalitions are probed through an
	// elected representative; whatever it cannot cover (small coalitions,
	// shards whose every relay candidate failed) stays in pending and takes
	// the flat fan-out below.
	opts := s.opts
	if opts.SubCoalitionSize > 0 && len(pending) > 0 {
		pending = p.relayRoute(st3Ctx, s, topic, groupOf, probes, statuses, pending)
	}
	fanOutCtx(st3Ctx, len(pending), opts.FanOut, func(j int) {
		pr := &probes[pending[j]]
		st := &statuses[pending[j]]
		probeCtx, psp := trace.StartSpan(st3Ctx, "query.probe:"+pr.name)
		if mt := time.Duration(opts.MemberTimeout); mt > 0 {
			var cancel context.CancelFunc
			probeCtx, cancel = context.WithTimeout(probeCtx, mt)
			defer cancel()
		}
		probeCtx, cs := orb.WithCallStats(probeCtx)
		start := time.Now()
		res, out, perr := p.cachedProbe(probeCtx, pr.peer, topic)
		st.Latency = time.Since(start)
		st.Attempts = int(cs.Attempts.Load())
		st.Cached = out.Served() || out == mdcache.Coalesced
		st.Stale = out == mdcache.Stale
		psp.SetAttr("cache", out.String())
		if perr != nil {
			st.ErrClass = classifyErr(perr)
			st.Err = perr.Error()
			s.tracef("communication", "peer co-database of %s failed (%s): %v", pr.name, st.ErrClass, perr)
		} else {
			pr.coals, pr.links = res.Coals, res.Links
			st.ErrClass, st.Err = "", ""
			if st.Stale {
				s.tracef("communication", "peer co-database of %s unavailable; serving stale cached probe", pr.name)
			}
		}
		psp.End(perr)
	})
	out := leads
	seen := map[string]bool{}
	for _, l := range out {
		seen["c:"+strings.ToLower(l.Coalition)] = true
	}
	for i := range probes {
		pr := &probes[i]
		for _, match := range pr.coals {
			key := "c:" + strings.ToLower(match.Coalition)
			if !seen[key] {
				seen[key] = true
				out = append(out, Lead{Coalition: match.Coalition, Score: match.Score,
					Via: "peer:" + pr.name, CoDBRef: pr.ref})
			}
		}
		for _, match := range pr.links {
			key := "l:" + strings.ToLower(match.Coalition)
			if !seen[key] {
				seen[key] = true
				ref := match.CoDBRef
				if ref == "" {
					ref = pr.ref
				}
				out = append(out, Lead{Coalition: match.Coalition, Score: match.Score,
					Via: "peer:" + pr.name + "/" + match.Via, CoDBRef: ref})
			}
		}
	}
	s.tracef("meta-data", "coalition peers contributed %d lead(s)", len(out)-len(leads))
	return sortLeads(out), statuses, nil
}

// sortLeads orders leads by descending score, then name, for stable output.
func sortLeads(leads []Lead) []Lead {
	sort.SliceStable(leads, func(i, j int) bool {
		if leads[i].Score != leads[j].Score {
			return leads[i].Score > leads[j].Score
		}
		return leads[i].Coalition < leads[j].Coalition
	})
	return leads
}

func leadsFrom(matches []codb.Match, defaultRef string) []Lead {
	out := make([]Lead, len(matches))
	for i, m := range matches {
		ref := m.CoDBRef
		if ref == "" {
			ref = defaultRef
		}
		out[i] = Lead{Coalition: m.Coalition, Score: m.Score, Via: m.Via, CoDBRef: ref}
	}
	return out
}

// codbByRef opens a co-database client from a stringified IOR, memoizing the
// parsed client so repeated discovery over the same peers costs a map lookup
// instead of an IOR parse per statement.
func (p *Processor) codbByRef(ref string) (*codb.Client, error) {
	p.clientMu.Lock()
	if c, ok := p.clients[ref]; ok {
		p.clientMu.Unlock()
		return c, nil
	}
	p.clientMu.Unlock()
	objRef, err := p.cfg.ORB.ResolveString(ref)
	if err != nil {
		return nil, err
	}
	c := codb.NewClient(objRef)
	p.clientMu.Lock()
	if prev, ok := p.clients[ref]; ok {
		c = prev // another goroutine won the race; keep one canonical client
	} else {
		p.clients[ref] = c
	}
	p.clientMu.Unlock()
	return c, nil
}

// ---- Connection and browsing ----

// execConnect provides a point of entry for a coalition: the session's
// subsequent Display queries run against the co-database that knows it.
func (s *Session) execConnect(ctx context.Context, q *wtl.Connect) (*Response, error) {
	client, err := s.p.coalitionEntry(ctx, s, q.Coalition)
	if err != nil {
		return nil, err
	}
	s.Coalition = q.Coalition
	s.codbClient = client
	return &Response{Stmt: q, Text: fmt.Sprintf("Connected to coalition %s.", q.Coalition)}, nil
}

// coalitionEntry finds a co-database that knows the coalition: locally,
// through a service link, or through a coalition peer.
func (p *Processor) coalitionEntry(ctx context.Context, s *Session, coalition string) (*codb.Client, error) {
	local := p.cfg.Local
	if p.hasCoalition(ctx, local, coalition) {
		s.tracef("meta-data", "coalition %s found in local co-database", coalition)
		return local, nil
	}
	// A service link naming the coalition as target may carry a reference.
	links, _, err := p.cachedLinks(ctx, local)
	if err == nil {
		for _, l := range links {
			if strings.EqualFold(l.To, coalition) && l.CoDBRef != "" {
				if peer, err := p.codbByRef(l.CoDBRef); err == nil && p.hasCoalition(ctx, peer, coalition) {
					s.tracef("communication", "entering coalition %s through service link %s", coalition, l.Name)
					return peer, nil
				}
			}
		}
	}
	// Ask coalition peers.
	memberOf, _, _ := p.cachedMemberOf(ctx, local)
	for _, c := range memberOf {
		members, _, err := p.cachedInstances(ctx, local, c)
		if err != nil {
			continue
		}
		for _, m := range members {
			if strings.EqualFold(m.Name, p.cfg.Home) || m.CoDBRef == "" {
				continue
			}
			peer, err := p.codbByRef(m.CoDBRef)
			if err != nil {
				continue
			}
			if p.hasCoalition(ctx, peer, coalition) {
				s.tracef("communication", "entering coalition %s through peer %s", coalition, m.Name)
				return peer, nil
			}
			// One more hop: the peer's links may carry the reference.
			plinks, _, err := p.cachedLinks(ctx, peer)
			if err != nil {
				continue
			}
			for _, l := range plinks {
				if strings.EqualFold(l.To, coalition) && l.CoDBRef != "" {
					if far, err := p.codbByRef(l.CoDBRef); err == nil && p.hasCoalition(ctx, far, coalition) {
						s.tracef("communication", "entering coalition %s through peer %s link %s",
							coalition, m.Name, l.Name)
						return far, nil
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("query: no entry point found for coalition %s", coalition)
}

func (p *Processor) hasCoalition(ctx context.Context, c *codb.Client, coalition string) bool {
	names, _, err := p.cachedCoalitions(ctx, c)
	if err != nil {
		return false
	}
	for _, n := range names {
		if strings.EqualFold(n, coalition) {
			return true
		}
	}
	return false
}

// execCoalitions lists the coalitions of the session's current co-database.
func (s *Session) execCoalitions(ctx context.Context, q *wtl.DisplayCoalitions) (*Response, error) {
	s.tracef("communication", "invoke coalitions()")
	names, err := s.current().Coalitions(ctx)
	if err != nil {
		return nil, err
	}
	text := "No coalitions known here."
	if len(names) > 0 {
		text = "Known coalitions: " + strings.Join(names, ", ")
	}
	return &Response{Stmt: q, Names: names, Text: text}, nil
}

// execLinks lists the service links of the session's current co-database.
func (s *Session) execLinks(ctx context.Context, q *wtl.DisplayLinks) (*Response, error) {
	s.tracef("communication", "invoke links()")
	links, err := s.current().Links(ctx)
	if err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return &Response{Stmt: q, Text: "No service links known here."}, nil
	}
	var b strings.Builder
	b.WriteString("Known service links:")
	var names []string
	for _, l := range links {
		names = append(names, l.Name)
		fmt.Fprintf(&b, "\n  %s: %s %q -> %s %q (%s)",
			l.Name, l.FromKind, l.From, l.ToKind, l.To, l.InfoType)
	}
	return &Response{Stmt: q, Names: names, Text: b.String()}, nil
}

func (s *Session) execSubClasses(ctx context.Context, q *wtl.DisplaySubClasses) (*Response, error) {
	s.tracef("communication", "invoke subclasses(%q)", q.Class)
	subs, err := s.current().SubCoalitions(ctx, q.Class, true)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("Class %s has no subclasses.", q.Class)
	if len(subs) > 0 {
		text = fmt.Sprintf("SubClasses of %s: %s", q.Class, strings.Join(subs, ", "))
	}
	return &Response{Stmt: q, Names: subs, Text: text}, nil
}

func (s *Session) execInstances(ctx context.Context, q *wtl.DisplayInstances) (*Response, error) {
	s.tracef("communication", "invoke instances(%q)", q.Class)
	members, err := s.current().Instances(ctx, q.Class)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	text := fmt.Sprintf("Class %s has no instances.", q.Class)
	if len(names) > 0 {
		text = fmt.Sprintf("Instances of %s:\n  %s", q.Class, strings.Join(names, "\n  "))
	}
	return &Response{Stmt: q, Sources: members, Names: names, Text: text}, nil
}

func (s *Session) execDocument(ctx context.Context, q *wtl.DisplayDocument) (*Response, error) {
	s.tracef("communication", "invoke document(%q)", q.Instance)
	url, html, err := s.current().Document(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = q.Instance
	text := fmt.Sprintf("Documentation of %s: %s", q.Instance, url)
	return &Response{Stmt: q, DocURL: url, DocHTML: html, Text: text}, nil
}

func (s *Session) execAccessInfo(ctx context.Context, q *wtl.DisplayAccessInfo) (*Response, error) {
	s.tracef("communication", "invoke access_info(%q)", q.Instance)
	d, err := s.current().AccessInfo(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = d.Name
	var b strings.Builder
	fmt.Fprintf(&b, "The database %s is located at %q and exports the following type(s):\n",
		d.Name, d.Location)
	for _, t := range d.Interface {
		b.WriteString(t.Declaration())
		b.WriteByte('\n')
	}
	return &Response{Stmt: q, Descriptor: d, Text: strings.TrimRight(b.String(), "\n")}, nil
}

func (s *Session) execInterface(ctx context.Context, q *wtl.DisplayInterface) (*Response, error) {
	s.tracef("communication", "invoke access_info(%q)", q.Instance)
	d, err := s.current().AccessInfo(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = d.Name
	return &Response{
		Stmt:    q,
		Names:   d.InterfaceNames(),
		Text:    fmt.Sprintf("Interface of %s: %s", d.Name, strings.Join(d.InterfaceNames(), ", ")),
		Sources: []*codb.SourceDescriptor{d},
	}, nil
}

// matchesStructure checks that an exported type declares every attribute a
// structural search requires (by qualified or bare name; type must match
// when both sides give one).
func matchesStructure(et *codb.ExportedType, wants []wtl.Member) bool {
	for _, w := range wants {
		found := false
		for _, a := range et.Attributes {
			if !attrNameMatches(a.Name, w.Name) {
				continue
			}
			if w.Type != "" && a.Type != "" && !strings.EqualFold(a.Type, w.Type) {
				continue
			}
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// attrNameMatches compares attribute names, letting a bare name match the
// column part of a qualified one.
func attrNameMatches(have, want string) bool {
	if strings.EqualFold(have, want) {
		return true
	}
	hBase := have
	if _, c, ok := strings.Cut(have, "."); ok {
		hBase = c
	}
	wBase := want
	if _, c, ok := strings.Cut(want, "."); ok {
		wBase = c
	}
	return strings.EqualFold(hBase, wBase)
}

func (s *Session) execSearchType(ctx context.Context, q *wtl.SearchType) (*Response, error) {
	client := s.current()
	coalitions, err := client.Coalitions(ctx)
	if err != nil {
		return nil, err
	}
	var hits []*codb.SourceDescriptor
	seen := map[string]bool{}
	for _, c := range coalitions {
		members, err := client.Instances(ctx, c)
		if err != nil {
			continue
		}
		for _, m := range members {
			if seen[strings.ToLower(m.Name)] {
				continue
			}
			et, ok := m.Type(q.TypeName)
			if !ok {
				continue
			}
			if len(q.Structure) > 0 && !matchesStructure(et, q.Structure) {
				continue
			}
			seen[strings.ToLower(m.Name)] = true
			hits = append(hits, m)
		}
	}
	names := make([]string, len(hits))
	for i, h := range hits {
		names[i] = h.Name
	}
	text := fmt.Sprintf("No sources export type %s.", q.TypeName)
	if len(hits) > 0 {
		text = fmt.Sprintf("Sources exporting type %s: %s", q.TypeName, strings.Join(names, ", "))
	}
	return &Response{Stmt: q, Sources: hits, Names: names, Text: text}, nil
}

// ---- Data access ----

// lookupSource finds a descriptor in the current context, falling back to
// the local co-database.
func (s *Session) lookupSource(ctx context.Context, name string) (*codb.SourceDescriptor, error) {
	if name == "" {
		name = s.Source
	}
	if name == "" {
		return nil, fmt.Errorf("query: no source selected; name one with On or Display Access Information first")
	}
	if d, _, err := s.p.cachedAccessInfo(ctx, s.current(), name); err == nil {
		return d, nil
	}
	d, _, err := s.p.cachedAccessInfo(ctx, s.p.cfg.Local, name)
	if err != nil {
		return nil, fmt.Errorf("query: source %s not found in current context: %w", name, err)
	}
	return d, nil
}

// openSource opens a gateway connection to the descriptor's database:
// through its ISI servant when it advertises one, else through a DSN.
func (p *Processor) openSource(s *Session, d *codb.SourceDescriptor) (gateway.Conn, error) {
	if d.ISIRef != "" {
		ref, err := p.cfg.ORB.ResolveString(d.ISIRef)
		if err != nil {
			return nil, fmt.Errorf("query: source %s advertises a bad ISI reference: %w", d.Name, err)
		}
		s.tracef("communication", "connecting to ISI of %s at %s", d.Name, ref.IOR().Addr())
		return gateway.NewRemoteConn(ref), nil
	}
	if d.DSN != "" && p.cfg.Gateway != nil {
		s.tracef("communication", "opening gateway DSN %s", d.DSN)
		return p.cfg.Gateway.Open(d.DSN)
	}
	return nil, fmt.Errorf("query: source %s advertises no access path", d.Name)
}

func (s *Session) execFuncQuery(ctx context.Context, q *wtl.FuncQuery) (*Response, error) {
	if q.OnCoalition {
		return s.execCoalitionFuncQuery(ctx, q)
	}
	if q.Join != nil {
		// The parser enforces this; the guard covers programmatic statements.
		return nil, fmt.Errorf("query: SemiJoin requires the outer query to target a coalition")
	}
	d, err := s.lookupSource(ctx, q.Source)
	if err != nil {
		return nil, err
	}
	fn := exportedFunction(d, q.Function)
	if fn == nil {
		return nil, fmt.Errorf("query: source %s exports no function %s", d.Name, q.Function)
	}
	mp, err := buildMemberPlan(d, fn, q, !s.opts.DisablePushdown)
	if err != nil {
		return nil, err
	}
	ex := &mp.Exec
	s.tracef("query", "wrapper %s translated %s to: %s", WrapperFor(d).Name(), q.Function, ex.Native)
	conn, err := s.p.openSource(s, d)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s.tracef("data", "executing on %s (%s): %s", d.Name, d.Engine, ex.Native)
	s.p.stats.plans.Add(1)
	s.p.stats.fragmentsPushed.Add(int64(ex.Pushed))
	s.p.stats.fragmentsCompensated.Add(int64(len(ex.Residual)))
	if ex.LimitPushed {
		s.p.stats.limitPushed.Add(1)
	}
	res, err := conn.Query(ctx, ex.Native)
	if err != nil && (ex.Pushed > 0 || ex.LimitPushed) && isCapabilityRejection(err) {
		s.tracef("data", "source %s rejected pushed fragment (%v); retrying with full compensation", d.Name, err)
		s.p.stats.fallbacks.Add(1)
		ex = &mp.Bare
		res, err = conn.Query(ctx, ex.Native)
	}
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", d.Name, err)
	}
	s.p.stats.rowsMoved.Add(int64(len(res.Rows)))
	rowsMoved := len(res.Rows)
	res = compensateSingle(res, ex, fn, q.Limit)
	s.p.stats.rowsDelivered.Add(int64(len(res.Rows)))
	s.Source = d.Name
	return &Response{Stmt: q, Result: res, Translated: ex.Native, Descriptor: d,
		RowsMoved: rowsMoved, Text: res.Format()}, nil
}

// compensateSingle applies a fragment's residual conjuncts, narrows the
// projection back to the result column, and enforces a LIMIT the engine did
// not, for the single-source execution path. When the fragment was fully
// pushed the engine result passes through untouched.
func compensateSingle(res *gateway.Result, ex *fragmentExec, fn *codb.ExportedFunction, limit int) *gateway.Result {
	if len(ex.Residual) == 0 && ex.NCols <= 1 && (limit <= 0 || ex.LimitPushed) {
		return res
	}
	out := &gateway.Result{}
	if len(res.Columns) > 0 {
		out.Columns = res.Columns[:1]
	} else {
		out.Columns = []string{fn.ResultColumn}
	}
	for _, row := range res.Rows {
		if len(row) == 0 {
			continue
		}
		if len(ex.Residual) > 0 && !residualMatch(row, ex) {
			continue
		}
		out.Rows = append(out.Rows, row[:1])
		if limit > 0 && len(out.Rows) >= limit {
			break
		}
	}
	return out
}

// execCoalitionFuncQuery decomposes a typed query over every member of a
// coalition that exports the function, merging the result sets with a
// leading "source" column — the paper's query decomposition across a
// cluster of databases sharing a topic. The planner (plan.go) splits each
// member's predicates into pushed and compensated halves by the member's
// capability profile; the streaming merge (merge.go) consumes the members'
// rows in member order through bounded channels, so the merged result is
// deterministic and a statement LIMIT can cancel the remaining fan-out the
// moment it is satisfied.
//
// The fan-out degrades gracefully: a member that is unreachable, slow past
// its deadline, or circuit-broken does not abort the statement. Every
// member's outcome — attempts, latency, error class — lands in
// Response.Members; Response.Partial marks real degradation (members cut
// off by a satisfied LIMIT report ErrClass "limit" and do not count). The
// statement only fails when fewer than Options.MinMembers members answer and
// the LIMIT was not satisfied.
func (s *Session) execCoalitionFuncQuery(ctx context.Context, q *wtl.FuncQuery) (*Response, error) {
	rows, err := s.streamCoalition(ctx, q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return rows.drainResponse(ctx)
}

func (s *Session) execNativeQuery(ctx context.Context, q *wtl.NativeQuery) (*Response, error) {
	d, err := s.lookupSource(ctx, q.Source)
	if err != nil {
		return nil, err
	}
	conn, err := s.p.openSource(s, d)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s.tracef("data", "executing on %s (%s): %s", d.Name, d.Engine, q.Text)
	res, err := conn.Query(ctx, q.Text)
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", d.Name, err)
	}
	s.Source = d.Name
	return &Response{Stmt: q, Result: res, Translated: q.Text, Descriptor: d, Text: res.Format()}, nil
}

// ---- Information-space maintenance ----

// maintenanceCoDB requires an in-process co-database for schema changes.
func (s *Session) maintenanceCoDB() (*codb.CoDatabase, error) {
	if s.p.cfg.LocalCoDB == nil {
		return nil, fmt.Errorf("query: information-space maintenance requires the node's own co-database")
	}
	return s.p.cfg.LocalCoDB, nil
}

func (s *Session) execCreateCoalition(q *wtl.CreateCoalition) (*Response, error) {
	cd, err := s.maintenanceCoDB()
	if err != nil {
		return nil, err
	}
	if err := cd.DefineCoalition(q.Name, q.Parent, q.Description); err != nil {
		return nil, err
	}
	s.p.invalidateCache()
	return &Response{Stmt: q, Text: fmt.Sprintf("Coalition %s created.", q.Name)}, nil
}

func (s *Session) execCreateLink(q *wtl.CreateLink) (*Response, error) {
	cd, err := s.maintenanceCoDB()
	if err != nil {
		return nil, err
	}
	if err := cd.AddLink(&codb.ServiceLink{
		Name:     q.Name,
		FromKind: q.FromKind,
		From:     q.From,
		ToKind:   q.ToKind,
		To:       q.To,
		InfoType: q.InfoType,
	}); err != nil {
		return nil, err
	}
	s.p.invalidateCache()
	return &Response{Stmt: q, Text: fmt.Sprintf("Service link %s created.", q.Name)}, nil
}

// memberCoDBs opens the co-database clients of a coalition's members as
// known to the entry client, deduplicated by reference. The clients are
// resolved through a bounded worker pool and returned in member order.
func (s *Session) memberCoDBs(ctx context.Context, entry *codb.Client, coalition string) ([]*codb.Client, error) {
	p := s.p
	members, _, err := p.cachedInstances(ctx, entry, coalition)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var refs []string
	for _, m := range members {
		if m.CoDBRef == "" || seen[m.CoDBRef] {
			continue
		}
		seen[m.CoDBRef] = true
		refs = append(refs, m.CoDBRef)
	}
	clients := make([]*codb.Client, len(refs))
	fanOut(len(refs), s.opts.FanOut, func(i int) {
		if c, err := p.codbByRef(refs[i]); err == nil {
			clients[i] = c
		}
	})
	out := make([]*codb.Client, 0, len(clients))
	for _, c := range clients {
		if c != nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// execJoin advertises the home database into a coalition: every current
// member's co-database learns the newcomer, and — when this node owns its
// co-database — the coalition is replicated locally with all its members, so
// the newcomer is a full participant ("individual sites join and leave these
// clusters at their own discretion").
func (s *Session) execJoin(ctx context.Context, q *wtl.JoinCoalition) (*Response, error) {
	home := s.p.cfg.HomeDescriptor
	if home == nil {
		return nil, fmt.Errorf("query: node has no home descriptor to advertise")
	}
	entry, err := s.p.coalitionEntry(ctx, s, q.Coalition)
	if err != nil {
		return nil, err
	}
	members, _, err := s.p.cachedInstances(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if strings.EqualFold(m.Name, s.p.cfg.Home) {
			return nil, fmt.Errorf("query: %s is already a member of %s", s.p.cfg.Home, q.Coalition)
		}
	}
	peers, err := s.memberCoDBs(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	// Advertise into every member co-database in parallel. Unlike the serial
	// loop — which stopped at the first failure, leaving only the peers
	// before it advertised — the fan-out reaches every peer before errors
	// are checked, so on failure the successful advertisements are rolled
	// back (best effort) and a failed join leaves no peer knowing the
	// newcomer.
	advErrs := make([]error, len(peers))
	fanOut(len(peers), s.opts.FanOut, func(i int) {
		s.tracef("communication", "advertising %s into a member co-database", s.p.cfg.Home)
		advErrs[i] = peers[i].Advertise(ctx, q.Coalition, home)
	})
	var joinErr error
	for _, err := range advErrs {
		if err != nil {
			joinErr = err // report the first error in member order
			break
		}
	}
	if joinErr != nil {
		fanOut(len(peers), s.opts.FanOut, func(i int) {
			if advErrs[i] == nil {
				peers[i].RemoveMember(ctx, q.Coalition, s.p.cfg.Home)
			}
		})
		return nil, joinErr
	}
	// Local replication.
	if cd := s.p.cfg.LocalCoDB; cd != nil {
		if !cd.HasCoalition(q.Coalition) {
			desc, syns, _ := entry.CoalitionInfo(ctx, q.Coalition)
			if err := cd.DefineCoalition(q.Coalition, "", desc, syns...); err != nil {
				return nil, err
			}
		}
		for _, m := range members {
			if err := cd.AddMember(q.Coalition, m); err != nil && !strings.Contains(err.Error(), "already a member") {
				return nil, err
			}
		}
		if err := cd.AddMember(q.Coalition, home); err != nil && !strings.Contains(err.Error(), "already a member") {
			return nil, err
		}
	}
	// The membership everyone cached just changed; drop it eagerly so the
	// join is observable before TTL/version convergence.
	s.p.invalidateCache()
	return &Response{Stmt: q,
		Text: fmt.Sprintf("%s joined coalition %s.", s.p.cfg.Home, q.Coalition)}, nil
}

// execLeave withdraws the home database from a coalition everywhere it is
// known: every member's co-database, and the local copy.
func (s *Session) execLeave(ctx context.Context, q *wtl.LeaveCoalition) (*Response, error) {
	entry, err := s.p.coalitionEntry(ctx, s, q.Coalition)
	if err != nil {
		return nil, err
	}
	peers, err := s.memberCoDBs(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	removedAt := make([]bool, len(peers))
	fanOut(len(peers), s.opts.FanOut, func(i int) {
		if err := peers[i].RemoveMember(ctx, q.Coalition, s.p.cfg.Home); err == nil {
			removedAt[i] = true
		}
	})
	removed := false
	for _, ok := range removedAt {
		removed = removed || ok
	}
	if !removed {
		return nil, fmt.Errorf("query: %s is not a member of %s", s.p.cfg.Home, q.Coalition)
	}
	s.p.invalidateCache()
	return &Response{Stmt: q,
		Text: fmt.Sprintf("%s left coalition %s.", s.p.cfg.Home, q.Coalition)}, nil
}
