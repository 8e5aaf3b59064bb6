package codb

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/orb"
)

// newWideCoDB builds a co-database with one coalition holding n members, so
// paged listings actually page.
func newWideCoDB(t *testing.T, n int) *CoDatabase {
	t.Helper()
	cd := New("Registry")
	if err := cd.DefineCoalition("Medical", "", "every hospital in the state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := &SourceDescriptor{
			Name:            fmt.Sprintf("Hospital-%02d", i),
			InformationType: "Medical",
			Engine:          "Oracle",
		}
		if err := cd.AddMember("Medical", d); err != nil {
			t.Fatal(err)
		}
	}
	return cd
}

func startCoDBPair(t *testing.T, cd *CoDatabase, opts ServantOptions) (*Client, interface{ OpenCount() int }) {
	t.Helper()
	c, table, _, _ := startCoDBPairORBs(t, cd, opts)
	return c, table
}

// startCoDBPairORBs is startCoDBPair that also returns the server and client
// ORBs, so tests can count dispatched requests and IIOP calls.
func startCoDBPairORBs(t *testing.T, cd *CoDatabase, opts ServantOptions) (*Client, interface{ OpenCount() int }, *orb.ORB, *orb.ORB) {
	t.Helper()
	server := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	servant, table := NewServantWith(cd, opts)
	ior, err := server.Activate("CoDatabase/Registry", servant)
	if err != nil {
		t.Fatal(err)
	}
	clientORB := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	t.Cleanup(clientORB.Shutdown)
	return NewClient(clientORB.Resolve(ior)), table, server, clientORB
}

func TestInstancesPagedBatches(t *testing.T) {
	c, table := startCoDBPair(t, newWideCoDB(t, 7), ServantOptions{})
	ctx := context.Background()

	it, err := c.InstancesPaged(ctx, "Medical", 3)
	if err != nil {
		t.Fatal(err)
	}
	// 7 members over batch 3: a cursor is retained until the drain finishes.
	if table.OpenCount() != 1 {
		t.Fatalf("open cursors after open = %d", table.OpenCount())
	}
	var names []string
	for {
		d, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, d.Name)
	}
	if len(names) != 7 || names[0] != "Hospital-00" || names[6] != "Hospital-06" {
		t.Fatalf("paged names = %v", names)
	}
	if table.OpenCount() != 0 {
		t.Fatalf("open cursors after drain = %d", table.OpenCount())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err == nil {
		t.Fatal("Next on closed iterator succeeded")
	}
}

func TestInstancesPagedEarlyClose(t *testing.T) {
	c, table := startCoDBPair(t, newWideCoDB(t, 10), ServantOptions{})
	ctx := context.Background()

	it, err := c.InstancesPaged(ctx, "Medical", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if table.OpenCount() != 0 {
		t.Fatalf("open cursors after early Close = %d", table.OpenCount())
	}
}

func TestInstancesDelegatesThroughCursor(t *testing.T) {
	c, table := startCoDBPair(t, newWideCoDB(t, 5), ServantOptions{})
	insts, err := c.Instances(context.Background(), "Medical")
	if err != nil || len(insts) != 5 {
		t.Fatalf("instances = %v, %v", insts, err)
	}
	// Batch 0 means the whole listing travelled in the open reply.
	if table.OpenCount() != 0 {
		t.Fatalf("whole-listing retained %d cursors", table.OpenCount())
	}
	// Errors still surface as typed user exceptions.
	if _, err := c.Instances(context.Background(), "Nope"); err == nil {
		t.Fatal("unknown coalition accepted")
	} else if ue, ok := err.(*orb.UserException); !ok || ue.Name != "CoDatabaseError" {
		t.Fatalf("error shape = %v", err)
	}
}

func TestInstancesPagedCapFallsBack(t *testing.T) {
	c, table, server, client := startCoDBPairORBs(t, newWideCoDB(t, 6), ServantOptions{CursorMaxOpen: 1})
	ctx := context.Background()

	held, err := c.InstancesPaged(ctx, "Medical", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	// The next open hits the cap; the server answers with the whole listing
	// in the open reply. Each listing the servant dispatches runs the
	// co-database's member scan once.
	calls, served := client.Stats.IIOPCalls.Load(), server.Stats.RequestsServed.Load()
	it, err := c.InstancesPaged(ctx, "Medical", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if d := client.Stats.IIOPCalls.Load() - calls; d != 1 {
		t.Fatalf("open past the cap cost %d IIOP calls, want 1", d)
	}
	if d := server.Stats.RequestsServed.Load() - served; d != 1 {
		t.Fatalf("open past the cap ran %d member listings, want 1", d)
	}
	var n int
	for {
		if _, err := it.Next(ctx); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 6 {
		t.Fatalf("fallback drain = %d descriptors", n)
	}
	if table.OpenCount() != 1 {
		t.Fatalf("fallback opened a cursor: %d", table.OpenCount())
	}
}

// TestServantCursorReaping proves the servant's table honours an injected
// clock end to end.
func TestServantCursorReaping(t *testing.T) {
	clock := time.Unix(5000, 0)
	c, table := startCoDBPair(t, newWideCoDB(t, 8), ServantOptions{
		CursorIdleTTL: time.Minute,
		Clock:         func() time.Time { return clock },
	})
	ctx := context.Background()
	it, err := c.InstancesPaged(ctx, "Medical", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	clock = clock.Add(2 * time.Minute)
	if n := table.(interface{ Reap() int }).Reap(); n != 1 {
		t.Fatalf("reap = %d", n)
	}
	// The next fetch finds the cursor gone.
	for {
		_, err = it.Next(ctx)
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("reaped cursor drained to EOF")
	}
	if ue, ok := err.(*orb.UserException); !ok || ue.Name != "CursorError" {
		t.Fatalf("fetch after reap = %v", err)
	}
	snap := table.(interface{ OpenCount() int }).OpenCount()
	if snap != 0 {
		t.Fatalf("open after reap = %d", snap)
	}
}
