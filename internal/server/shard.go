package server

import (
	"slices"

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
	batch *fillBatch        // with fills: the worker's batch the run is part of
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
	requests int64
	refused  int64
	// fillsIssued (the StartFill hook) and fillsDone count the store fills
	// sent to the pool and come back.
	fillsIssued, fillsDone int64

	// Write-behind (wbFull == 0 when it is off). wbq is one FIFO of the
	// write-backs handed to the store path and not yet complete, in the
	// order the kernel queued them, cut into batches: only the last batch
	// can still be gathering, and only the first can be at the store
	// (wbBusy), one batch at a time — so queue order is execution order,
	// which honors every same-block Conflict constraint. wbCut marks the
	// head batch cut and waiting for the fills issued before it was cut
	// (wbWait). wbInflight counts every write-back in wbq; the drain
	// barrier waits for it, so no batch races Server.Close's store writes.
	wbDepth, wbFull int
	wbq             [][]*core.WriteBack
	wbCut, wbBusy   bool
	wbWait          int64
	wbInflight      int

	// fq is the shard's fill queue; the worker pool drains it. Closed at
	// retire.
	fq *fillQueue
	// store is the shard's slice of the base store, its kernel's Store.
	store remapStore
	// vectors reports whether the base store can retire a run as one
	// vectored call. A completed run of more than one block counts as a
	// batch only when it can, so BatchedFills on a plain (or counting
	// test) store honestly reads zero.
	vectors bool
	// announce is the base store when it addresses files by name
	// (replyFile), else nil.
	announce announcer
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
		if sh.receive(m) {
			return
		}
	}
}

// receive handles one message on the shard goroutine, then lets the
// write-behind FIFO move, and reports whether the shard has retired.
func (sh *shard) receive(m kmsg) (retired bool) {
	switch {
	case m.fills != nil:
		sh.fillsDone += int64(len(m.fills))
		if len(m.fills) > 1 && sh.vectors {
			sh.kern.CountFillBatch(len(m.fills))
		}
		for _, fl := range m.fills {
			sh.kern.CompleteFill(fl)
		}
		m.batch.open.Add(-1) // the worker may reuse the run now
	case m.wbs != nil:
		sh.wbInflight -= len(m.wbs)
		sh.wbq[0] = nil
		sh.wbq, sh.wbBusy = sh.wbq[1:], false
		if len(m.wbs) > 1 && sh.vectors {
			sh.kern.CountWritebackBatches(1)
		}
		for _, wb := range m.wbs {
			sh.kern.CompleteWriteBack(wb)
		}
	case m.call != nil:
		m.call(sh)
	case m.drain:
		sh.draining = true
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
	sh.writeBehind()
	if sh.draining && len(sh.sessions) == 0 && sh.fillsDone == sh.fillsIssued && sh.wbInflight == 0 {
		sh.retire()
		return true
	}
	return false
}

// retire ends the shard once it is draining, no session can enqueue
// more work, no fill is in flight and the write-behind FIFO is empty —
// the drain barrier that makes the stopped server's direct kernel and
// store access (FlushDirty, LiveFiles, Close) safe. Closing the
// fill queue ends the fill workers.
func (sh *shard) retire() {
	sh.fq.close()
	close(sh.done)
}

// startWriteBack is the shard's LiveConfig.StartWriteBack hook; it runs
// on the shard loop goroutine and never blocks it. A write-back joins the
// FIFO — the last batch while that one is gathering, else a batch of its
// own — unless wbDepth write-backs already wait behind the head batch and
// it is not Conflict: then it degrades to a synchronous inline write,
// which is the backpressure rule (a full queue slows the evicting request
// down to the synchronous cost instead of growing without bound). A
// Conflict write-back — one that must not overtake an older pending
// write of its block; a removed file's discard and a release's barrier
// are always one — joins the FIFO past the bound, since only queue order
// is safe for it.
func (sh *shard) startWriteBack(wb *core.WriteBack) {
	n := len(sh.wbq)
	if !wb.Conflict && n > 0 && sh.wbInflight-len(sh.wbq[0]) >= sh.wbDepth {
		// Inline is safe exactly because !Conflict: no older write of this
		// block is queued anywhere, so writing now cannot reorder anything.
		wb.Stalled = true
		wb.Err = sh.kern.Store().WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
		sh.kern.CompleteWriteBack(wb)
		return
	}
	sh.wbInflight++
	if sh.joins(wb) {
		sh.wbq[n-1] = append(sh.wbq[n-1], wb)
		return
	}
	sh.wbq = append(sh.wbq, append(make([]*core.WriteBack, 0, sh.wbFull), wb))
}

// joins reports whether wb may join the FIFO's last batch: that batch is
// short of a whole one, is not alone and not at the store, and does not
// hold wb's block. A duplicate block starts a new batch, so a batch is
// order-equivalent to its writes issued one by one, whatever order the
// store applies it in. Only a Conflict write-back can duplicate a
// pending block, so only it pays for the scan.
func (sh *shard) joins(wb *core.WriteBack) bool {
	n := len(sh.wbq)
	if n == 0 || n == 1 && sh.wbBusy || alone(wb) {
		return false
	}
	last := sh.wbq[n-1]
	if len(last) == sh.wbFull || alone(last[0]) {
		return false
	}
	return !wb.Conflict || !slices.ContainsFunc(last, func(o *core.WriteBack) bool { return o.ID == wb.ID })
}

// alone reports whether wb is a batch of its own: a discard, or a
// release's barrier, which writes nothing and must follow every batch
// queued before it.
func alone(wb *core.WriteBack) bool { return wb.Discard != nil || wb.Barrier() }

// writeBehind sends the FIFO's head batch to the store when it may go,
// and the loop calls it after every message. The head is cut — it stops
// gathering — once it is a whole batch, alone, followed by another
// batch, or the shard is draining; an idle shard keeps a partial batch
// until then, as a dirty block stays cached. Demand reads go first: a
// cut batch waits until the fills issued before it was cut have landed,
// and a later fill never extends the wait.
func (sh *shard) writeBehind() {
	if len(sh.wbq) == 0 || sh.wbBusy {
		return
	}
	if !sh.wbCut {
		head := sh.wbq[0]
		if len(sh.wbq) == 1 && len(head) < sh.wbFull && !alone(head[0]) && !sh.draining {
			return
		}
		sh.wbCut, sh.wbWait = true, sh.fillsIssued
	}
	if sh.fillsDone < sh.wbWait {
		return
	}
	sh.wbCut, sh.wbBusy = false, true
	sh.srv.running.Add(1)
	go sh.writeBatch(sh.kern.Store(), sh.wbq[0])
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
