package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/server"
	"repro/internal/server/client"
)

var _ client.Session = (*Client)(nil)

// TestClientRemoveForgetsBinding: a removed name's synthetic id and
// entry are dropped, so a replay that creates and removes temporaries in
// a loop (the paper's sort) leaves the client's maps where they started,
// and the stale id is unknown afterwards.
func TestClientRemoveForgetsBinding(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
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

// TestClientBroadcastRefusalKeepsMembers: a call every member refuses
// (set_policy before control, control twice) comes back with its
// refusal, and every member stays live: the same client goes on to
// create, write and read.
func TestClientBroadcastRefusalKeepsMembers(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	cl := NewClient(tc.members)
	defer cl.Close()
	if err := cl.SetPolicy(3, acm.MRU); !hasStatus(err, server.StatusNoControl) {
		t.Errorf("set_policy before control: err = %v, want no_control", err)
	}
	if err := cl.Control(true); err != nil {
		t.Fatal(err)
	}
	if err := cl.Control(true); !hasStatus(err, server.StatusNoControl) {
		t.Errorf("second control: err = %v, want no_control", err)
	}
	if n := cl.alive().Len(); n != 2 {
		t.Fatalf("%d live members after the refusals, want 2", n)
	}
	f, err := cl.Create("after", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(f.ID, 0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadNoData(f.ID, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestClientCacheControlCalls: the routing client's five cache-control
// calls on a 2-node cluster. The per-file ones reach each file's owner —
// two files that different members own — and set_policy reaches every
// member, so each member's session and the client read the new policy.
func TestClientCacheControlCalls(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	cl := NewClient(tc.members)
	defer cl.Close()
	if err := cl.Control(true); err != nil {
		t.Fatal(err)
	}
	byOwner := make(map[string]client.File)
	for i := 0; len(byOwner) < 2; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, ok := byOwner[cl.alive().Owner(name)]; ok {
			continue
		}
		f, err := cl.Create(name, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		byOwner[cl.alive().Owner(name)] = f
	}
	prio := 1
	for owner, f := range byOwner {
		prio++
		if err := cl.SetPriority(f.ID, prio); err != nil {
			t.Fatalf("set_priority on %s's file: %v", owner, err)
		}
		if got, err := cl.GetPriority(f.ID); err != nil || got != prio {
			t.Errorf("get_priority on %s's file = %d, %v; want %d", owner, got, err, prio)
		}
		if err := cl.SetTempPri(f.ID, 0, 3, 0); err != nil {
			t.Errorf("set_temppri on %s's file: %v", owner, err)
		}
	}
	if err := cl.SetPolicy(2, acm.MRU); err != nil {
		t.Fatal(err)
	}
	for _, m := range tc.members {
		c, err := cl.conn(m)
		if err != nil {
			t.Fatal(err)
		}
		if pol, err := c.GetPolicy(2); err != nil || pol != acm.MRU {
			t.Errorf("get_policy on %s = %v, %v; want MRU", m, pol, err)
		}
	}
	if pol, err := cl.GetPolicy(2); err != nil || pol != acm.MRU {
		t.Errorf("get_policy through the client = %v, %v; want MRU", pol, err)
	}
}

// scriptDial makes dial's attempts fail first fails times, then go
// through client.Dial, until the test ends; it returns the attempt count.
func scriptDial(t *testing.T, fails int) *int {
	attempts := new(int)
	dialConn = func(network, addr string) (*client.Conn, error) {
		if *attempts++; *attempts <= fails {
			return nil, errors.New("dial scripted to fail")
		}
		return client.Dial(network, addr)
	}
	t.Cleanup(func() { dialConn = client.Dial })
	return attempts
}

// TestClientOneSessionPerMember: a member keeps the session the client
// first dialed to it across every op routed there.
func TestClientOneSessionPerMember(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	dials := scriptDial(t, 0)
	cl := NewClient(tc.members)
	defer cl.Close()
	if err := cl.Control(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f, err := cl.Create(fmt.Sprintf("f%d", i), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(f.ID, 0, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if *dials != 2 {
		t.Errorf("%d dials for 2 members, want 2", *dials)
	}
}

// TestDialRetriesOnce: a failed dial is tried once more, and the retry
// connects.
func TestDialRetriesOnce(t *testing.T) {
	tc := startTestCluster(t, 1, nil)
	attempts := scriptDial(t, 1)
	c, err := dial(tc.members[0])
	if err != nil {
		t.Fatalf("one failed attempt: %v, want the retry to connect", err)
	}
	c.Close()
	if *attempts != 2 {
		t.Errorf("%d attempts, want 2", *attempts)
	}
}

// TestDialGivesUpAfterRetry: a dial whose retry fails too returns the
// error after its two attempts, with no third.
func TestDialGivesUpAfterRetry(t *testing.T) {
	tc := startTestCluster(t, 1, nil)
	attempts := scriptDial(t, 2)
	if _, err := dial(tc.members[0]); err == nil {
		t.Error("two failed attempts: dial succeeded")
	}
	if *attempts != 2 {
		t.Errorf("%d attempts, want 2", *attempts)
	}
}
