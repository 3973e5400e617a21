package server

import (
	"slices"
	"sync"

	"repro/internal/core"
)

// shard is one kernel shard: a Live of its own and the lock that owns
// it. Whoever holds mu owns the shard, and every field from mu down is
// read and written only under it — the serialization rule that lets the
// DES-era cache and ACM structures run a concurrent server unchanged,
// applied per replacement domain. ask is the one way to take it.
type shard struct {
	idx  int
	srv  *Server
	kern *core.Live
	// fq is the shard's fill queue; the worker pool drains it. Closed at
	// retire.
	fq *fillQueue
	// vectors reports whether the server's store can retire a run as one
	// vectored call. A completed run of more than one block counts as a
	// batch only when it can, so BatchedFills on a plain (or counting
	// test) store honestly reads zero.
	vectors bool
	// announce is the base store when it addresses files by name
	// (replyFile), else nil.
	announce announcer
	// done closes when the shard retires, for Shutdown to wait on.
	done chan struct{}

	mu sync.Mutex
	// retired is set once, when the shard retires (shutdown): from then
	// on ask refuses and nothing runs on the shard again.
	retired  bool
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
	// (wbWait). A write-back is in flight exactly while it is in wbq; the
	// drain barrier waits for wbq to empty, so no batch races
	// Server.Close's store writes.
	wbDepth, wbFull int
	wbq             [][]*core.WriteBack
	wbCut, wbBusy   bool
	wbWait          int64
}

// ask runs fn as the shard's owner and reports whether it ran: it takes
// mu, refuses (false) once the shard has retired, runs fn, lets the
// write-behind FIFO move, retires the shard when the retire condition
// holds, and lets go. It is the one way into a shard: a session's reader
// runs its open, its requests and its close through it, a fill worker
// each completed run, a write-behind batch its completion, and Shutdown,
// the stats snapshot and the broadcasts what they read or change.
//
// fn runs under the shard lock, so it must not block — a send to a
// session's out cannot, by the token rule; a stalled write-back's inline
// store write is the one exception — and must not ask any shard: no
// goroutine holds two shard locks.
//
// Nothing that holds a shard open can find it retired, as the retire
// condition waits for it: a registered session (its reader's requests,
// broadcasts and close), a fill or write-back in flight (its
// completion). Only callers that hold nothing there — Metrics, Shutdown's
// force after the grace — can be refused.
func (sh *shard) ask(fn func(*shard)) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.retired {
		return false
	}
	fn(sh)
	sh.writeBehind()
	if sh.draining && len(sh.sessions) == 0 && sh.fillsDone == sh.fillsIssued && len(sh.wbq) == 0 {
		sh.retire()
	}
	return true
}

// completeFills applies a fill worker's completed run: the fills leave
// the in-flight count and complete one by one, in run order.
func (sh *shard) completeFills(run []*core.Fill) {
	sh.fillsDone += int64(len(run))
	if len(run) > 1 && sh.vectors {
		sh.kern.CountFillBatch(len(run))
	}
	for _, fl := range run {
		sh.kern.CompleteFill(fl)
	}
}

// completeWriteBacks applies the head batch's return from the store: it
// leaves the FIFO and its write-backs complete in batch order.
func (sh *shard) completeWriteBacks(batch []*core.WriteBack) {
	sh.wbq, sh.wbBusy = slices.Delete(sh.wbq, 0, 1), false
	if len(batch) > 1 && sh.vectors {
		sh.kern.CountWritebackBatches(1)
	}
	for _, wb := range batch {
		sh.kern.CompleteWriteBack(wb)
	}
}

// writeBacks counts the write-backs in batches.
func writeBacks(batches [][]*core.WriteBack) int {
	n := 0
	for _, batch := range batches {
		n += len(batch)
	}
	return n
}

// retire ends the shard once it is draining, no session can send more
// work, no fill is in flight and the write-behind FIFO is empty — the
// drain barrier that makes the stopped server's direct kernel and store
// access (FlushDirty, LiveFiles, Close) safe. Closing the fill queue
// ends the fill workers.
func (sh *shard) retire() {
	sh.retired = true
	sh.fq.close()
	close(sh.done)
}

// startWriteBack is the shard's LiveConfig.StartWriteBack hook; it runs
// under the shard lock and blocks only in its inline write. A write-back joins the
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
	if !wb.Conflict && n > 0 && writeBacks(sh.wbq[1:]) >= sh.wbDepth {
		// Inline is safe exactly because !Conflict: no older write of this
		// block is queued anywhere, so writing now cannot reorder anything.
		wb.Stalled = true
		wb.Err = sh.srv.store.WriteBlock(int32(wb.ID.File), wb.ID.Num, wb.Data)
		sh.kern.CompleteWriteBack(wb)
		return
	}
	if sh.joins(wb) {
		sh.wbq[n-1] = append(sh.wbq[n-1], wb)
		return
	}
	size := sh.wbFull
	if alone(wb) {
		size = 1
	}
	sh.wbq = append(sh.wbq, append(make([]*core.WriteBack, 0, size), wb))
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
// and ask calls it after every step. The head is cut — it stops
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
	go sh.writeBatch(sh.wbq[0])
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
}
