package codb

import (
	"context"
	"errors"
	"testing"

	"repro/internal/orb"
)

// fakeExchanger is a canned gossip endpoint: it records what the servant
// hands it and answers with fixed payloads, so the test pins the opaque-byte
// plumbing without involving a real gossip store.
type fakeExchanger struct {
	gotDigest []byte
	gotDelta  []byte
	delta     []byte
	digest    []byte
	applied   int
	err       error
}

func (f *fakeExchanger) HandlePull(digest []byte) ([]byte, []byte, error) {
	f.gotDigest = append([]byte(nil), digest...)
	if f.err != nil {
		return nil, nil, f.err
	}
	return f.delta, f.digest, nil
}

func (f *fakeExchanger) HandlePush(delta []byte) (int, error) {
	f.gotDelta = append([]byte(nil), delta...)
	if f.err != nil {
		return 0, f.err
	}
	return f.applied, nil
}

// TestGossipOpsOverIIOP exercises gossip_pull, gossip_push and relay_probe
// through the ORB: opaque payloads must cross untouched in both directions,
// and relay results must round-trip every field (error class, staleness,
// match lists) positionally.
func TestGossipOpsOverIIOP(t *testing.T) {
	ex := &fakeExchanger{delta: []byte("\x00DELTA\xff"), digest: []byte("DIGEST"), applied: 3}
	var relayTopic string
	var relayTargets []RelayTarget
	c, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{
		Gossip: ex,
		Relay: func(ctx context.Context, topic string, members []RelayTarget) []RelayResult {
			relayTopic, relayTargets = topic, members
			return []RelayResult{
				{Name: members[0].Name, Stale: true, Coals: []Match{
					{Coalition: "Medical", Score: 0.5, Via: "local", CoDBRef: "IOR:abc"},
				}, Links: []Match{
					{Coalition: "Insurance", Score: 1, Via: "link:m2i"},
				}},
				{Name: members[1].Name, ErrClass: "comm", Err: "peer down"},
			}
		},
	})
	ctx := context.Background()

	delta, digest, err := c.GossipPull(ctx, []byte("MY-DIGEST"))
	if err != nil || string(delta) != "\x00DELTA\xff" || string(digest) != "DIGEST" {
		t.Fatalf("GossipPull = %q, %q, %v", delta, digest, err)
	}
	if string(ex.gotDigest) != "MY-DIGEST" {
		t.Fatalf("servant saw digest %q", ex.gotDigest)
	}

	n, err := c.GossipPush(ctx, []byte("PUSHED"))
	if err != nil || n != 3 {
		t.Fatalf("GossipPush = %d, %v", n, err)
	}
	if string(ex.gotDelta) != "PUSHED" {
		t.Fatalf("servant saw delta %q", ex.gotDelta)
	}

	results, err := c.RelayProbe(ctx, "cancer research", []RelayTarget{
		{Name: "A", Ref: "IOR:a"}, {Name: "B", Ref: "IOR:b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if relayTopic != "cancer research" || len(relayTargets) != 2 ||
		relayTargets[0] != (RelayTarget{Name: "A", Ref: "IOR:a"}) ||
		relayTargets[1] != (RelayTarget{Name: "B", Ref: "IOR:b"}) {
		t.Fatalf("servant saw topic %q targets %+v", relayTopic, relayTargets)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	a, b := results[0], results[1]
	if a.Name != "A" || !a.Stale || a.ErrClass != "" ||
		len(a.Coals) != 1 || a.Coals[0] != (Match{Coalition: "Medical", Score: 0.5, Via: "local", CoDBRef: "IOR:abc"}) ||
		len(a.Links) != 1 || a.Links[0].Coalition != "Insurance" {
		t.Fatalf("result A did not round-trip: %+v", a)
	}
	if b.Name != "B" || b.ErrClass != "comm" || b.Err != "peer down" || b.Stale || len(b.Coals) != 0 {
		t.Fatalf("result B did not round-trip: %+v", b)
	}
}

// TestGossipOpsErrorsAndCompat pins the failure contract: a servant whose
// exchanger errors surfaces the failure to the client, and a servant built
// without gossip or relay hooks answers BAD_OPERATION,
// which callers treat like a dead candidate.
func TestGossipOpsErrorsAndCompat(t *testing.T) {
	ctx := context.Background()

	failing, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{
		Gossip: &fakeExchanger{err: errors.New("store sealed")},
	})
	if _, _, err := failing.GossipPull(ctx, nil); err == nil {
		t.Fatal("pull against failing exchanger succeeded")
	}
	if _, err := failing.GossipPush(ctx, []byte("x")); err == nil {
		t.Fatal("push against failing exchanger succeeded")
	}

	legacy, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{})
	var se *orb.SystemException
	if _, _, err := legacy.GossipPull(ctx, nil); !errors.As(err, &se) || se.Name != orb.ExcBadOperation {
		t.Fatalf("pull on pre-gossip servant = %v, want BAD_OPERATION", err)
	}
	if _, err := legacy.RelayProbe(ctx, "t", []RelayTarget{{Name: "A"}}); !errors.As(err, &se) || se.Name != orb.ExcBadOperation {
		t.Fatalf("relay on pre-gossip servant = %v, want BAD_OPERATION", err)
	}
}
