package client

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeConn is a stub connection for Redialer tests: it records closes.
type fakeConn struct {
	id     int
	closed atomic.Bool
}

func (f *fakeConn) Close() error {
	f.closed.Store(true)
	return nil
}

// fakeDialer scripts a dial sequence: fail the first `failures` dials,
// then succeed with fresh numbered connections.
type fakeDialer struct {
	dials    int
	failures int
	conns    []*fakeConn
}

func (d *fakeDialer) dial() (*fakeConn, error) {
	d.dials++
	if d.dials <= d.failures {
		return nil, errors.New("dial scripted to fail")
	}
	c := &fakeConn{id: d.dials}
	d.conns = append(d.conns, c)
	return c, nil
}

func TestRedialerGetReusesConnection(t *testing.T) {
	d := &fakeDialer{}
	r := &Redialer[*fakeConn]{Dial: d.dial}
	c1, err := r.Get()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("second Get dialed a new connection")
	}
	if d.dials != 1 {
		t.Errorf("dials = %d, want 1", d.dials)
	}
}

func TestRedialerRetriesWithBackoff(t *testing.T) {
	d := &fakeDialer{failures: 2}
	r := &Redialer[*fakeConn]{Dial: d.dial}
	start := time.Now()
	c, err := r.Get()
	if err != nil {
		t.Fatalf("Get after 2 scripted failures: %v", err)
	}
	if c.id != 3 {
		t.Errorf("got conn %d, want the third dial", c.id)
	}
	// Two retries at 10ms then 20ms backoff: at least 30ms must have passed.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("Get returned after %v; backoff skipped", elapsed)
	}
}

func TestRedialerExhaustsAttempts(t *testing.T) {
	d := &fakeDialer{failures: 100}
	r := &Redialer[*fakeConn]{Dial: d.dial, Attempts: 2}
	if _, err := r.Get(); err == nil {
		t.Fatal("Get succeeded with every dial scripted to fail")
	}
	if d.dials != 2 {
		t.Errorf("dials = %d, want exactly Attempts=2", d.dials)
	}
}

func TestRedialerOnConnect(t *testing.T) {
	d := &fakeDialer{}
	var restored []int
	fail := true
	r := &Redialer[*fakeConn]{
		Dial: d.dial,
		OnConnect: func(c *fakeConn) error {
			if fail {
				fail = false
				return errors.New("restore scripted to fail once")
			}
			restored = append(restored, c.id)
			return nil
		},
	}
	c, err := r.Get()
	if err != nil {
		t.Fatal(err)
	}
	// The first connection's failed restore must close it and retry.
	if len(d.conns) != 2 || !d.conns[0].closed.Load() {
		t.Errorf("failed-OnConnect conn not closed (conns %d)", len(d.conns))
	}
	if c.id != 2 || len(restored) != 1 || restored[0] != 2 {
		t.Errorf("OnConnect ran on %v, want [2]", restored)
	}
}

func TestRedialerInvalidate(t *testing.T) {
	d := &fakeDialer{}
	r := &Redialer[*fakeConn]{Dial: d.dial}
	c1, _ := r.Get()
	r.Invalidate(c1)
	if !c1.closed.Load() {
		t.Errorf("Invalidate left the dead connection open")
	}
	c2, err := r.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Errorf("Get returned the invalidated connection")
	}
	// A stale invalidate (the old handle, after redial) must not touch
	// the current connection.
	r.Invalidate(c1)
	if c2.closed.Load() {
		t.Errorf("stale Invalidate closed the live connection")
	}
	if c3, _ := r.Get(); c3 != c2 {
		t.Errorf("stale Invalidate forced a redial")
	}
}

func TestRedialerDialTimeout(t *testing.T) {
	release := make(chan struct{})
	late := &fakeConn{id: 99}
	r := &Redialer[*fakeConn]{
		Dial: func() (*fakeConn, error) {
			<-release
			return late, nil
		},
		DialTimeout: 5 * time.Millisecond,
		Attempts:    1,
	}
	_, err := r.Get()
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Get = %v, want dial timeout", err)
	}
	// The dial that eventually completes must be closed, not leaked.
	close(release)
	deadline := time.Now().Add(time.Second)
	for !late.closed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("late connection never closed after timeout")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRedialerClose(t *testing.T) {
	d := &fakeDialer{}
	r := &Redialer[*fakeConn]{Dial: d.dial}
	c1, _ := r.Get()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !c1.closed.Load() {
		t.Errorf("Close left the connection open")
	}
	// The redialer stays usable after Close.
	c2, err := r.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Errorf("Get after Close returned the closed connection")
	}
}
