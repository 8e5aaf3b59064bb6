package codb

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cursor"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/trace"
)

// IDL is the CORBA interface of a co-database server: the meta-data layer
// operations the query layer uses to educate users and resolve queries.
var IDL = idl.MustParse(`
module WebFINDIT {
    interface CoDatabase {
        string owner();
        unsigned long long version();
        sequence<any> find_coalitions(in string topic);
        sequence<any> find_links(in string topic);
        sequence<any> coalitions();
        sequence<any> member_of();
        sequence<any> subclasses(in string coalition, in boolean direct);
        any open_instances(in string coalition, in long long batch);
        any fetch_cursor(in long long id);
        void close_cursor(in long long id);
        any coalition_info(in string coalition);
        any access_info(in string source);
        any document(in string source);
        sequence<any> links();
        void define_coalition(in string name, in string parent, in string description);
        void advertise(in string coalition, in any descriptor);
        void add_link(in any link);
        void remove_member(in string coalition, in string source);
        any gossip_pull(in string digest);
        long long gossip_push(in string delta);
        sequence<any> relay_probe(in string topic, in sequence<any> members);
    };
};
`)[0]

func matchToAny(m Match) idl.Any {
	return idl.Struct(
		idl.F("coalition", idl.String(m.Coalition)),
		idl.F("score", idl.Double(m.Score)),
		idl.F("via", idl.String(m.Via)),
		idl.F("codb_ref", idl.String(m.CoDBRef)),
	)
}

// MatchFromAny unpacks a discovery match.
func MatchFromAny(a idl.Any) Match {
	score, _ := a.Get("score")
	return Match{
		Coalition: a.GetString("coalition"),
		Score:     score.Float,
		Via:       a.GetString("via"),
		CoDBRef:   a.GetString("codb_ref"),
	}
}

// ServantOptions give the servant its instance-cursor table and optional
// scale-out hooks; the zero value selects a default cursor table and leaves
// the gossip and relay operations unregistered (callers then get
// BAD_OPERATION).
type ServantOptions struct {
	// Cursors holds the paged instance listings; nil selects a table with
	// the cursor package defaults.
	Cursors *cursor.Table

	// Gossip serves the anti-entropy operations (gossip_pull/gossip_push)
	// when non-nil — in practice the node's *gossip.Agent.
	Gossip GossipExchanger
	// Relay serves relay_probe when non-nil: a sub-coalition representative
	// probes the given members on the coordinator's behalf and returns one
	// result per member, in order.
	Relay func(ctx context.Context, topic string, members []RelayTarget) []RelayResult
}

// GossipExchanger is the servant-side surface of the anti-entropy protocol,
// implemented by gossip.Agent. Payloads are opaque to this package: the
// gossip wire codec owns their layout.
type GossipExchanger interface {
	HandlePull(digest []byte) (delta, selfDigest []byte, err error)
	HandlePush(delta []byte) (int, error)
}

// NewServant exposes a co-database through the ORB with default cursor
// options.
func NewServant(cd *CoDatabase) orb.Servant {
	return NewServantWith(cd, ServantOptions{})
}

// NewServantWith is NewServant with a caller-owned cursor table and the
// scale-out hooks.
func NewServantWith(cd *CoDatabase, opts ServantOptions) orb.Servant {
	userErr := func(err error) error {
		return &orb.UserException{Name: "CoDatabaseError", Message: err.Error()}
	}
	cursors := opts.Cursors
	if cursors == nil {
		cursors = cursor.NewTable(0, 0, nil)
	}
	h := orb.NewHandler(IDL)
	// on wraps each operation in a "codb.<op>" span tagged with the owning
	// database, so metadata lookups appear in the trace of the query that
	// issued them and aggregate per-operation in the tracer's metrics.
	on := func(op string, fn orb.OpFunc) {
		h.OnCtx(op, func(ctx context.Context, args []idl.Any) (idl.Any, error) {
			_, sp := trace.StartSpan(ctx, "codb."+op)
			sp.SetAttr("owner", cd.Owner())
			res, err := fn(args)
			sp.End(err)
			return res, err
		})
	}
	on("owner", func(args []idl.Any) (idl.Any, error) {
		return idl.String(cd.Owner()), nil
	})
	on("version", func(args []idl.Any) (idl.Any, error) {
		return idl.Any{Kind: idl.KindULongLong, Int: int64(cd.Version())}, nil
	})
	on("find_coalitions", func(args []idl.Any) (idl.Any, error) {
		matches := cd.FindCoalitions(args[0].Str)
		out := make([]idl.Any, len(matches))
		for i, m := range matches {
			out[i] = matchToAny(m)
		}
		return idl.Seq(out...), nil
	})
	on("find_links", func(args []idl.Any) (idl.Any, error) {
		matches := cd.FindLinks(args[0].Str)
		out := make([]idl.Any, len(matches))
		for i, m := range matches {
			out[i] = matchToAny(m)
		}
		return idl.Seq(out...), nil
	})
	on("coalitions", func(args []idl.Any) (idl.Any, error) {
		return idl.Strings(cd.Coalitions()), nil
	})
	on("member_of", func(args []idl.Any) (idl.Any, error) {
		return idl.Strings(cd.MemberOf()), nil
	})
	on("subclasses", func(args []idl.Any) (idl.Any, error) {
		subs, err := cd.SubCoalitions(args[0].Str, args[1].Bool)
		if err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Strings(subs), nil
	})
	on("open_instances", func(args []idl.Any) (idl.Any, error) {
		members, err := cd.Members(args[0].Str)
		if err != nil {
			return idl.Null(), userErr(err)
		}
		items := make([]idl.Any, len(members))
		for i, m := range members {
			items[i] = m.ToAny()
		}
		id, first, done := cursors.Open(items, int(args[1].Int))
		return idl.Struct(
			idl.F("id", idl.Long(id)),
			idl.F("items", idl.Seq(first...)),
			idl.F("done", idl.Bool(done)),
		), nil
	})
	on("fetch_cursor", func(args []idl.Any) (idl.Any, error) {
		batch, done, err := cursors.Fetch(args[0].Int)
		if err != nil {
			return idl.Null(), &orb.UserException{Name: "CursorError", Message: err.Error()}
		}
		return idl.Struct(
			idl.F("items", idl.Seq(batch...)),
			idl.F("done", idl.Bool(done)),
		), nil
	})
	on("close_cursor", func(args []idl.Any) (idl.Any, error) {
		cursors.Close(args[0].Int)
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	on("coalition_info", func(args []idl.Any) (idl.Any, error) {
		desc, syns, ok := cd.CoalitionInfo(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no coalition %s known here", args[0].Str))
		}
		return idl.Struct(
			idl.F("name", idl.String(args[0].Str)),
			idl.F("description", idl.String(desc)),
			idl.F("synonyms", idl.Strings(syns)),
		), nil
	})
	on("access_info", func(args []idl.Any) (idl.Any, error) {
		d, ok := cd.FindSource(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no source %s known here", args[0].Str))
		}
		return d.ToAny(), nil
	})
	on("document", func(args []idl.Any) (idl.Any, error) {
		d, ok := cd.FindSource(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no source %s known here", args[0].Str))
		}
		return idl.Struct(
			idl.F("name", idl.String(d.Name)),
			idl.F("documentation", idl.String(d.Documentation)),
			idl.F("html", idl.String(d.DocumentHTML)),
		), nil
	})
	on("links", func(args []idl.Any) (idl.Any, error) {
		links := cd.Links()
		out := make([]idl.Any, len(links))
		for i, l := range links {
			out[i] = l.ToAny()
		}
		return idl.Seq(out...), nil
	})
	on("define_coalition", func(args []idl.Any) (idl.Any, error) {
		if err := cd.DefineCoalition(args[0].Str, args[1].Str, args[2].Str); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	on("advertise", func(args []idl.Any) (idl.Any, error) {
		d, err := DescriptorFromAny(args[1])
		if err != nil {
			return idl.Null(), userErr(err)
		}
		if err := cd.AddMember(args[0].Str, d); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	on("add_link", func(args []idl.Any) (idl.Any, error) {
		l, err := LinkFromAny(args[0])
		if err != nil {
			return idl.Null(), userErr(err)
		}
		if err := cd.AddLink(l); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	on("remove_member", func(args []idl.Any) (idl.Any, error) {
		if err := cd.RemoveMember(args[0].Str, args[1].Str); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	// The gossip and relay operations are declared in the IDL but registered
	// only when the options supply the corresponding machinery; a bare
	// servant answers them with BAD_OPERATION.
	if opts.Gossip != nil {
		on("gossip_pull", func(args []idl.Any) (idl.Any, error) {
			delta, digest, err := opts.Gossip.HandlePull([]byte(args[0].Str))
			if err != nil {
				return idl.Null(), userErr(err)
			}
			return idl.Struct(
				idl.F("delta", idl.String(string(delta))),
				idl.F("digest", idl.String(string(digest))),
			), nil
		})
		on("gossip_push", func(args []idl.Any) (idl.Any, error) {
			applied, err := opts.Gossip.HandlePush([]byte(args[0].Str))
			if err != nil {
				return idl.Null(), userErr(err)
			}
			return idl.Long(int64(applied)), nil
		})
	}
	if opts.Relay != nil {
		h.OnCtx("relay_probe", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
			_, sp := trace.StartSpan(ctx, "codb.relay_probe")
			sp.SetAttr("owner", cd.Owner())
			members := make([]RelayTarget, 0, len(args[1].Seq))
			for _, m := range args[1].Seq {
				members = append(members, RelayTargetFromAny(m))
			}
			results := opts.Relay(ctx, args[0].Str, members)
			out := make([]idl.Any, len(results))
			for i, r := range results {
				out[i] = relayResultToAny(r)
			}
			sp.End(nil)
			return idl.Seq(out...), nil
		})
	}
	return h
}

// Client is a typed client for a (possibly remote) co-database servant. The
// query processor works exclusively through this interface, so local and
// remote metadata are handled identically. A Client is stateless over its
// object reference and safe for concurrent use: the query layer's parallel
// member fan-out reuses one Client across many in-flight calls, which the
// ORB pipelines over a shared multiplexed IIOP connection.
type Client struct {
	ref *orb.ObjectRef
}

// NewClient wraps an object reference to a co-database servant.
func NewClient(ref *orb.ObjectRef) *Client { return &Client{ref: ref} }

// Ref returns the underlying object reference.
func (c *Client) Ref() *orb.ObjectRef { return c.ref }

// Owner asks for the owning database's name.
//
// All Client methods are context-first: the context carries trace parentage
// across the hop and its deadline bounds the exchange. Read-only metadata
// operations are idempotent, so transport failures retry under the client
// ORB's retry policy; mutations (DefineCoalition, Advertise, AddLink,
// RemoveMember) make exactly one attempt.
func (c *Client) Owner(ctx context.Context) (string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "owner")
	if err != nil {
		return "", err
	}
	return v.Str, nil
}

func (c *Client) matches(ctx context.Context, op, topic string) ([]Match, error) {
	v, err := c.ref.InvokeIdempotent(ctx, op, idl.String(topic))
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(v.Seq))
	for _, item := range v.Seq {
		out = append(out, MatchFromAny(item))
	}
	return out, nil
}

// Version returns the remote co-database's monotonic schema version. It is
// the cheapest possible metadata exchange (an integer), which is what makes
// cache revalidation worthwhile against refetching member lists.
func (c *Client) Version(ctx context.Context) (uint64, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "version")
	if err != nil {
		return 0, err
	}
	return uint64(v.Int), nil
}

// FindCoalitions scores the remote co-database's coalitions against topic.
func (c *Client) FindCoalitions(ctx context.Context, topic string) ([]Match, error) {
	return c.matches(ctx, "find_coalitions", topic)
}

// FindLinks scores the remote co-database's service links against topic.
func (c *Client) FindLinks(ctx context.Context, topic string) ([]Match, error) {
	return c.matches(ctx, "find_links", topic)
}

// Coalitions lists the remote co-database's coalition classes.
func (c *Client) Coalitions(ctx context.Context) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "coalitions")
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// MemberOf lists the coalitions the remote owner belongs to.
func (c *Client) MemberOf(ctx context.Context) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "member_of")
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// SubCoalitions lists sub-coalitions of a coalition.
func (c *Client) SubCoalitions(ctx context.Context, coalition string, direct bool) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "subclasses", idl.String(coalition), idl.Bool(direct))
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// Instances lists a coalition's member descriptors. It delegates to
// InstancesPaged (batch 0: the whole listing in the open round trip, so the
// cost profile is unchanged) and drains the iterator. Prefer InstancesPaged
// for coalitions that may be large: Instances buffers every descriptor.
func (c *Client) Instances(ctx context.Context, coalition string) ([]*SourceDescriptor, error) {
	it, err := c.InstancesPaged(ctx, coalition, 0)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []*SourceDescriptor
	for {
		d, err := it.Next(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
}

// InstancesPaged lists a coalition's member descriptors through the cursor
// protocol, moving at most batch descriptors per round trip (batch <= 0
// fetches everything in the open round trip). The caller must Close the
// iterator. A server at its cursor cap answers the open with the whole
// listing and done set, in the same one round trip.
func (c *Client) InstancesPaged(ctx context.Context, coalition string, batch int) (*InstanceIter, error) {
	a, err := c.ref.InvokeIdempotent(ctx, "open_instances",
		idl.String(coalition), idl.Long(int64(batch)))
	if err != nil {
		return nil, err
	}
	items, _ := a.Get("items")
	done, _ := a.Get("done")
	return &InstanceIter{
		client: c,
		id:     a.GetInt("id"),
		buf:    items.Seq,
		done:   done.Bool,
	}, nil
}

// InstanceIter pulls batches of member descriptors from a server-side
// cursor. One batch is buffered at a time; the next fetch is only issued
// once the buffer drains.
type InstanceIter struct {
	client *Client
	id     int64
	buf    []idl.Any
	pos    int
	done   bool
	closed bool
}

// Next returns the next descriptor or io.EOF. The context bounds one fetch
// round trip, not the whole drain.
func (it *InstanceIter) Next(ctx context.Context) (*SourceDescriptor, error) {
	if it.closed {
		return nil, fmt.Errorf("codb: instance iterator is closed")
	}
	for it.pos >= len(it.buf) {
		if it.done {
			return nil, io.EOF
		}
		a, err := it.client.ref.InvokeIdempotent(ctx, "fetch_cursor", idl.Long(it.id))
		if err != nil {
			return nil, err
		}
		items, _ := a.Get("items")
		done, _ := a.Get("done")
		it.buf, it.pos, it.done = items.Seq, 0, done.Bool
	}
	item := it.buf[it.pos]
	it.pos++
	return DescriptorFromAny(item)
}

// Close releases the server-side cursor. Like the gateway's cursor iterator
// it detaches from the caller's context: cancelling a listing is exactly
// when the close RPC must still go out.
func (it *InstanceIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	if it.done || it.id == 0 {
		return nil // exhausted cursors are already gone server-side
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeInstancesTimeout)
	defer cancel()
	_, err := it.client.ref.InvokeIdempotent(ctx, "close_cursor", idl.Long(it.id))
	return err
}

// closeInstancesTimeout bounds the detached close_cursor round trip. Losing
// the race just means the idle reaper collects the cursor later.
const closeInstancesTimeout = 2 * time.Second

// CoalitionInfo fetches a coalition's description and synonyms.
func (c *Client) CoalitionInfo(ctx context.Context, coalition string) (string, []string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "coalition_info", idl.String(coalition))
	if err != nil {
		return "", nil, err
	}
	syns, _ := v.Get("synonyms")
	return v.GetString("description"), syns.StringSlice(), nil
}

// AccessInfo fetches a source descriptor by database name.
func (c *Client) AccessInfo(ctx context.Context, source string) (*SourceDescriptor, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "access_info", idl.String(source))
	if err != nil {
		return nil, err
	}
	return DescriptorFromAny(v)
}

// Document fetches a source's documentation URL and HTML body.
func (c *Client) Document(ctx context.Context, source string) (url, html string, err error) {
	v, err := c.ref.InvokeIdempotent(ctx, "document", idl.String(source))
	if err != nil {
		return "", "", err
	}
	return v.GetString("documentation"), v.GetString("html"), nil
}

// Links lists the remote co-database's service links.
func (c *Client) Links(ctx context.Context) ([]*ServiceLink, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "links")
	if err != nil {
		return nil, err
	}
	out := make([]*ServiceLink, 0, len(v.Seq))
	for _, item := range v.Seq {
		l, err := LinkFromAny(item)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// DefineCoalition declares a coalition class remotely.
func (c *Client) DefineCoalition(ctx context.Context, name, parent, description string) error {
	_, err := c.ref.InvokeCtx(ctx, "define_coalition",
		idl.String(name), idl.String(parent), idl.String(description))
	return err
}

// Advertise adds a member descriptor to a remote coalition (dynamic join).
func (c *Client) Advertise(ctx context.Context, coalition string, d *SourceDescriptor) error {
	_, err := c.ref.InvokeCtx(ctx, "advertise", idl.String(coalition), d.ToAny())
	return err
}

// AddLink records a service link remotely.
func (c *Client) AddLink(ctx context.Context, l *ServiceLink) error {
	_, err := c.ref.InvokeCtx(ctx, "add_link", l.ToAny())
	return err
}

// RemoveMember withdraws a database from a remote coalition.
func (c *Client) RemoveMember(ctx context.Context, coalition, source string) error {
	_, err := c.ref.InvokeCtx(ctx, "remove_member", idl.String(coalition), idl.String(source))
	return err
}
