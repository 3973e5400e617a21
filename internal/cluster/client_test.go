package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/server/client"
)

var _ client.Session = (*Client)(nil)

// TestClientRemoveForgetsBinding: a removed name's synthetic id and
// entry are dropped, so a replay that creates and removes temporaries in
// a loop (the paper's sort) leaves the client's maps where they started,
// and the stale id is unknown afterwards.
func TestClientRemoveForgetsBinding(t *testing.T) {
	tc := startTestCluster(t, 2, NewMemOrigin())
	cl := NewClient(tc.members)
	defer cl.Close()
	keep, err := cl.Create("keep", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	files, names := len(cl.files), len(cl.byName)

	var last client.File
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("tmp/%d", i)
		if last, err = cl.Create(name, 0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(last.ID, 0, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := cl.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if len(cl.files) != files || len(cl.byName) != names {
		t.Errorf("after 20 create/remove rounds: %d entries, %d names; want %d, %d", len(cl.files), len(cl.byName), files, names)
	}
	if _, err := cl.ReadNoData(last.ID, 0, 0, 1); err == nil || !strings.Contains(err.Error(), "unknown file id") {
		t.Errorf("read through a removed file's id: err = %v, want unknown file id", err)
	}
	if _, err := cl.ReadNoData(keep.ID, 0, 0, 1); err != nil {
		t.Errorf("the file that was kept: %v", err)
	}
}

// TestClientReconnectReplaysLastPolicy: a reconnecting session gets the
// policy table, not its edit history — after five set_policy calls on one
// level the fresh session has made as many fbehavior calls as one that
// enabled control and set the policy once, and holds the last value.
func TestClientReconnectReplaysLastPolicy(t *testing.T) {
	tc := startTestCluster(t, 1, NewMemOrigin())
	m := tc.members[0]

	ref := dialMember(t, m)
	defer ref.Close()
	if err := ref.Control(true); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetPolicy(3, acm.MRU); err != nil {
		t.Fatal(err)
	}
	refStats, err := ref.Stats()
	if err != nil {
		t.Fatal(err)
	}

	cl := NewClient(tc.members)
	defer cl.Close()
	if err := cl.Control(true); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []acm.Policy{acm.MRU, acm.LRU, acm.MRU, acm.LRU, acm.MRU} {
		if _, err := cl.Fbehavior(client.FbSetPolicy, client.FbArgs{Prio: 3, Policy: pol}); err != nil {
			t.Fatal(err)
		}
	}
	c, rd, err := cl.conn(m)
	if err != nil {
		t.Fatal(err)
	}
	rd.Invalidate(c) // force the reconnect
	if c, _, err = cl.conn(m); err != nil {
		t.Fatal(err)
	}
	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sr.Session.FbehaviorCalls, refStats.Session.FbehaviorCalls; got != want {
		t.Errorf("the reconnected session made %d fbehavior calls, want %d: control and one set_policy", got, want)
	}
	if pol, err := c.GetPolicy(3); err != nil || pol != acm.MRU {
		t.Errorf("level 3 after the reconnect: %v, %v; want MRU", pol, err)
	}
}
