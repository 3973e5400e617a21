// redialer.go — reconnect machinery for a long-lived acfcd session that
// must survive server restarts and transient dial failures, as the
// cluster tier's routing client and a leave's handoff hold one per node:
// dial timeout, capped exponential backoff between attempts, and an
// OnConnect hook that rebuilds session state before the connection is
// handed out.

package client

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Redialer maintains one logical connection of type C (any closable
// conn: *Conn, or a caller's stub in tests), redialing on demand. C
// must be comparable (a pointer or interface value), because Invalidate
// matches the caller's dead connection against the current one.
//
// Get returns the current connection, dialing (with backoff) when there
// is none; Invalidate discards a connection the caller found dead, so
// the next Get dials fresh. All methods are safe for concurrent use;
// concurrent Gets share one dial.
type Redialer[C io.Closer] struct {
	// Dial establishes one raw connection.
	Dial func() (C, error)
	// OnConnect, if set, rebuilds session state on a fresh connection
	// before Get returns it. An OnConnect error closes the connection and
	// counts as a failed attempt.
	OnConnect func(C) error
	// DialTimeout bounds one Dial call (0: no bound). A connection that
	// arrives after the timeout is closed, not leaked.
	DialTimeout time.Duration
	// Attempts is the number of dial attempts per Get (default 3).
	Attempts int

	mu   sync.Mutex
	c    C
	live bool
}

func (r *Redialer[C]) attempts() int {
	if r.Attempts > 0 {
		return r.Attempts
	}
	return 3
}

// The delay before a Get's second attempt, doubling per attempt up to
// maxBackoff.
const (
	firstBackoff = 10 * time.Millisecond
	maxBackoff   = time.Second
)

// dialOnce runs one Dial under the timeout. On timeout the in-flight
// dial keeps running in a goroutine whose only job is to close whatever
// it eventually produced.
func (r *Redialer[C]) dialOnce() (C, error) {
	var zero C
	if r.DialTimeout <= 0 {
		return r.Dial()
	}
	type result struct {
		c   C
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := r.Dial()
		ch <- result{c, err}
	}()
	t := time.NewTimer(r.DialTimeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res.c, res.err
	case <-t.C:
		go func() {
			if res := <-ch; res.err == nil {
				res.c.Close()
			}
		}()
		return zero, fmt.Errorf("redial: dial timed out after %v", r.DialTimeout)
	}
}

// Get returns the current connection, dialing if needed: up to Attempts
// tries, exponential backoff between them, OnConnect run on every fresh
// connection before it is published. The last attempt's error is
// returned when all fail.
func (r *Redialer[C]) Get() (C, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero C
	if r.live {
		return r.c, nil
	}
	delay := firstBackoff
	var lastErr error
	for i := 0; i < r.attempts(); i++ {
		if i > 0 {
			time.Sleep(delay)
			delay = min(2*delay, maxBackoff)
		}
		c, err := r.dialOnce()
		if err != nil {
			lastErr = err
			continue
		}
		if r.OnConnect != nil {
			if err := r.OnConnect(c); err != nil {
				c.Close()
				lastErr = err
				continue
			}
		}
		r.c, r.live = c, true
		return c, nil
	}
	return zero, lastErr
}

// Invalidate closes and discards c if it is still the current
// connection; a stale handle (another goroutine already redialed) is
// left alone. The next Get dials fresh.
func (r *Redialer[C]) Invalidate(c C) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live && any(r.c) == any(c) {
		r.c.Close()
		r.live = false
	}
}

// Close discards the current connection, if any. The Redialer stays
// usable: a later Get dials again.
func (r *Redialer[C]) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.live {
		return nil
	}
	r.live = false
	return r.c.Close()
}
