package server

import (
	"sync/atomic"

	"repro/internal/core"
)

// kmsg is one message into a shard loop. Exactly one field group is set:
// a session event (sess + req/open/close), a completed fill or
// write-back run, a closure to run on the shard goroutine, or a shutdown
// phase.
type kmsg struct {
	sess  *session
	req   *request          // with sess: one request frame
	open  bool              // with sess: session arrived
	close bool              // with sess: session is gone
	fills []*core.Fill      // a completed fill run (one store call)
	wbs   []*core.WriteBack // a completed write-back batch, or one discard
	call  func(*shard)      // run on the shard goroutine (ask)
	drain bool              // begin refusing requests
	force bool              // kill every remaining session
}

// shard is one kernel shard: a Live of its own plus the one goroutine
// that owns it. All fields below kch are that goroutine's alone.
type shard struct {
	idx  int
	srv  *Server
	kern *core.Live
	kch  chan kmsg
	// done closes when the shard retires (shutdown): its loop returns
	// and nothing receives from kch again. Senders that hold a session,
	// a fill or a write-back open are counted by the retire condition
	// and send plainly; anyone else goes through post.
	done chan struct{}

	sessions map[*session]bool
	draining bool
	// drainc closes when draining begins: the flusher's cue to write the
	// partial batch it holds.
	drainc   chan struct{}
	requests int64
	refused  int64
	// fillsIssued (the StartFill hook) and fillsDone (the loop) count the
	// store fills sent to the pool and come back. Only the loop writes
	// them; the flusher reads them to let those in flight go first, and
	// fillWake (one slot, sent without blocking) wakes it when one lands.
	fillsIssued, fillsDone atomic.Int64
	fillWake               chan struct{}

	// wbch feeds the shard's flusher goroutine (nil when write-behind is
	// off). wbOverflow holds write-backs that must execute in FIFO order
	// behind an older same-block write but found wbch full; the loop
	// drains it into wbch as completions free slots. wbInflight counts
	// write-backs handed to the asynchronous path and not yet completed —
	// the drain barrier waits for it, so the flusher never races
	// Server.Close's store writes.
	wbch       chan *core.WriteBack
	wbOverflow []*core.WriteBack
	wbInflight int

	// fq is the shard's fill queue; the worker pool drains it. Closed at
	// retire.
	fq *fillQueue
	// vectors reports whether the base store can retire a run as one
	// vectored call. A completed run of more than one block counts as a
	// batch only when it can, so BatchedFills on a plain (or counting
	// test) store honestly reads zero.
	vectors bool
}

// post is the late sender's send: for a message that holds nothing open
// in the shard — no session, fill or write-back the retire condition
// counts — and so may find the loop gone. It reports whether the
// message was queued; a queued message can still go unread if the shard
// retires first, so ask, which awaits a reply, selects on done as well.
func (sh *shard) post(m kmsg) bool {
	select {
	case sh.kch <- m:
		return true
	case <-sh.done:
		return false
	}
}

// ask runs fn on the shard goroutine and returns once it has run — the
// one way to read or change a shard's state from outside its loop (the
// stats snapshot, the control-plane broadcasts). fn leaves what it finds
// in variables its caller captured. false means the shard has retired:
// its loop is gone, and fn will not run.
func (sh *shard) ask(fn func(*shard)) bool {
	ran := make(chan struct{})
	if !sh.post(kmsg{call: func(sh *shard) { fn(sh); close(ran) }}) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-sh.done:
		return false
	}
}

// loop is the one goroutine that owns this shard's Live kernel. Every
// cache operation in the shard happens here, in arrival order — the
// serialization rule that lets the DES-era cache and ACM structures run
// a concurrent server unchanged, now applied per replacement domain.
//
// The loop returns when the shard retires. Until then it receives
// everything sent: a session's messages (open first, close last) are
// sent while the session is registered or about to be, a completion
// while its fill or write-back is counted in flight, and the retire
// condition is that none of those is left — so request dispatch and
// completions send to kch unconditionally. Only senders that hold
// nothing open in the shard can find it gone; they use post.
func (sh *shard) loop() {
	defer sh.srv.running.Done()
	for m := range sh.kch {
		switch {
		case m.fills != nil:
			sh.fillsDone.Add(int64(len(m.fills)))
			select {
			case sh.fillWake <- struct{}{}:
			default:
			}
			if len(m.fills) > 1 && sh.vectors {
				sh.kern.CountFillBatch(len(m.fills))
			}
			for _, fl := range m.fills {
				sh.kern.CompleteFill(fl)
			}
		case m.wbs != nil:
			sh.wbInflight -= len(m.wbs)
			if len(m.wbs) > 1 && sh.vectors {
				sh.kern.CountWritebackBatches(1)
			}
			for _, wb := range m.wbs {
				sh.kern.CompleteWriteBack(wb)
			}
			sh.drainOverflow()
		case m.call != nil:
			m.call(sh)
		case m.drain:
			sh.draining = true
			close(sh.drainc)
		case m.force:
			for se := range sh.sessions {
				se.kill()
			}
		case m.sess != nil && m.open:
			sh.openSession(m.sess)
		case m.sess != nil && m.close:
			sh.closeSession(m.sess)
		case m.sess != nil && m.req != nil:
			if !sh.handle(m.sess, m.req) {
				releaseRequest(m.req)
			}
		}
		if sh.draining && len(sh.sessions) == 0 && sh.fillsDone.Load() == sh.fillsIssued.Load() && sh.wbInflight == 0 {
			sh.retire()
			return
		}
	}
}

// retire ends the shard once it is draining, no session can enqueue
// more work, no fill is in flight and the write-behind queue is empty —
// the drain barrier that makes the stopped server's direct kernel and
// store access (FlushDirty, CachedContents, Close) safe. Closing wbch
// and the fill queue ends the flusher and the fill workers.
func (sh *shard) retire() {
	if sh.wbch != nil {
		close(sh.wbch)
	}
	sh.fq.close()
	close(sh.done)
}

// startWriteBack is the shard's LiveConfig.StartWriteBack hook; it runs
// on the shard loop goroutine and never blocks it. A write-back goes to
// the flusher queue when there is room (behind any overflow, preserving
// FIFO); a Conflict write-back — one that must not overtake an older
// pending write of the same block — waits in the overflow list when the
// queue is full (a removed file's discard is always one: one entry per
// remove, however many blocks it names, any of whose older writes may
// be in the queue); anything else degrades to a synchronous inline
// write, which is the backpressure rule: a full queue slows the evicting
// request down to today's synchronous cost instead of growing the queue
// without bound or stalling the whole shard behind one block.
func (sh *shard) startWriteBack(wb *core.WriteBack) {
	sh.drainOverflow()
	if len(sh.wbOverflow) == 0 {
		select {
		case sh.wbch <- wb:
			sh.wbInflight++
			return
		default:
		}
	}
	if wb.Conflict {
		sh.wbOverflow = append(sh.wbOverflow, wb)
		sh.wbInflight++
		return
	}
	// Inline is safe exactly because !Conflict: no older write of this
	// block is queued anywhere, so writing now cannot reorder anything.
	wb.Stalled = true
	wb.Err = sh.kern.Store().WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
	sh.kern.CompleteWriteBack(wb)
}

// drainOverflow moves queued-behind-the-queue write-backs into wbch in
// FIFO order, as far as capacity allows.
func (sh *shard) drainOverflow() {
	for len(sh.wbOverflow) > 0 {
		select {
		case sh.wbch <- sh.wbOverflow[0]:
			sh.wbOverflow[0] = nil
			sh.wbOverflow = sh.wbOverflow[1:]
		default:
			return
		}
	}
	if len(sh.wbOverflow) == 0 {
		sh.wbOverflow = nil // let the backing array go
	}
}

func (sh *shard) openSession(se *session) {
	se.owners[sh.idx] = sh.kern.AddOwner(se.name)
	sh.sessions[se] = true
}

// closeSession releases a disconnected session's owner in this shard:
// its manager is destroyed and its blocks transferred or evicted — the
// cache's revoked owner path, run on every client disconnect, once per
// shard.
func (sh *shard) closeSession(se *session) {
	delete(sh.sessions, se)
	sh.kern.ReleaseOwner(se.owners[sh.idx])
	if sh.srv.cfg.CheckInvariants {
		sh.kern.CheckInvariants()
	}
	se.shardClosed()
}
