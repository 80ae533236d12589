package raft

// The write path — the only one. Two worker goroutines take the
// blocking halves of a main-loop iteration off the critical path:
//
//   - The persist worker owns every Storage call after boot. The main
//     loop stages durable mutations and flush() hands them to the
//     worker, so AppendEntries broadcasts depart while the leader's own
//     disk is still syncing. Commit latency is max(leader fsync,
//     follower RTT+fsync), not their sum. A node without a Storage runs
//     the same flush with no worker: it never stages anything, so
//     nothing is fenced and its durable index is its log tail.
//   - The apply worker owns StateMachine.Apply and the applied index,
//     so the main loop can persist and replicate batch N+1 while batch N
//     applies. A write's caller parks once, on the applied notifier's
//     broadcast (applied.go): the loop resolves the proposal's ticket
//     there instead of sending an accept reply, and a resolution wakes
//     the caller only when it can return. A read's caller gets its index
//     from the loop at confirmation and, if the state machine is still
//     behind it, parks on the same broadcast (ReadIndexMode).
//
// What a pass woke runs before the disk does: flush() readies the persist
// worker last, so the scheduler runs it first, and FileStorage.SyncDevice
// — or the coalesced round's write-back stage standing in for it — yields
// before the barrier parks its P (DESIGN.md §3.1.6, rule 1). And it runs
// before the loop's next pass does: a
// flush() that sent a read its reply or resolved a proposal's ticket ends
// by yielding, so the callers it released — or the apply worker that
// will — run and resubmit while the loop waits its turn, and the next
// mailbox.take finds them together — reads share a confirmation round,
// proposals an AppendEntries, and nothing waits on a timer (DESIGN.md
// §3.1.6, rule 2, which also states the cost: with no P free the loop can
// wait in the global queue behind the worker's barrier).
// Tickets onPersistDone resolves do not count: counting them too was
// measured and bought nothing (ROADMAP house rules).
//
// Safety is preserved by fencing externalization, not transmission
// (Raft requires only that persistence precede *externalization*), and a
// message waits for exactly what it claims about this node's disk:
//
//   - Every staged message carries a claim (node.go): a log index it says
//     the disk holds, and whether it speaks for the persisted term and
//     vote. flush() sends it at once iff the index is already durable and,
//     when it speaks for hard state, no SetState is staged or in flight.
//     Otherwise it rides the iteration's persist request and the main
//     loop releases it when that request — and, FIFO, every one before it
//     — has landed.
//   - So a vote request or a vote waits for the term and vote it names; an
//     AppendEntriesReply waits for the term it names and for the entries
//     it acknowledges; a reply to an append that added nothing (heartbeat,
//     read probe, retransmission) acknowledges only what is already on
//     disk and waits for nothing, whatever fsync happens to be running.
//     AppendEntries / InstallSnapshot fan-out, pre-votes and ReadIndex
//     traffic claim nothing: receivers persist before acking, and a
//     confirmed read index is quorum-durable by definition.
//   - Proposal-accept replies ("your entry is in the leader's log") wait
//     for the whole persist queue to drain.
//
// All Endpoint sends, reply-channel sends and ticket resolutions stay on
// the main loop: the persist worker returns its release bundle through
// the mailbox and the main loop externalizes it, so netsim's per-sender
// RNG streams and the transport never see concurrent senders. Every
// Endpoint send goes through transmit, which first folds what the set it
// sends says more than once to one peer into one message (fold).

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/rtrace"
)

// persistQueueCap bounds how many persist batches may be in flight
// between the main loop and the persist worker. A full queue blocks
// flush() — persistence backpressure, never dropped work.
const persistQueueCap = 64

// persistReq is one group-committed batch handed to the persist worker:
// the staged durable mutations of one (or more) main-loop iterations
// plus the fenced externalizations that must not depart before the
// batch is durable.
type persistReq struct {
	setState   bool
	term, vote int
	muts       []LogMutation
	// snap, if non-nil, is a snapshot record; snapAfter is how many of
	// muts logically precede it, preserving on-disk record order.
	snap      *snapStage
	snapAfter int
	// traced lists the sampled ops whose fsync phase this batch closes;
	// the worker stamps the interval itself, overlapping the network
	// phase the main loop opened at broadcast departure.
	traced []rtrace.ID
	// Release bundle: externalized by the main loop on completion.
	msgs    []outMsg
	replies []stagedReply
	// rewrites marks a batch that rewrites log indexes an earlier batch
	// still in flight wrote (clampDurable lowered that batch's target):
	// it starts a run of its own (nextRun).
	rewrites bool
}

// snapStage is a staged snapshot record (compaction or InstallSnapshot).
type snapStage struct {
	index, term int
	data        []byte
}

// pendingBatch is the main loop's record of one persistReq in flight,
// FIFO with persistQ: the durable index once it lands (kept here, not in
// the request, so truncations can clamp it while the batch is in flight)
// and whether it carries term and vote.
type pendingBatch struct {
	target   int
	setState bool
}

// persistDone reports the completion of a run of n consecutive batches,
// FIFO with persistQ and pendingPersist; msgs and replies are the runs'
// release bundles concatenated in staging order.
type persistDone struct {
	err     error
	n       int // persistReqs this run covered
	msgs    []outMsg
	replies []stagedReply
}

// applyItem is one unit of apply-worker input: a batch of committed
// entries or a snapshot restore.
type applyItem struct {
	first   int // index of entries[0], or the restore point
	entries []Entry
	term    int
	restore *snapStage
	// traced carries the apply-phase stamps for sampled entries in this
	// batch: the worker closes committed→applied.
	traced []applyTrace
}

type applyTrace struct {
	id        rtrace.ID
	committed time.Time
}

// compactReq asks the main loop to compact the log through index; data
// is the state machine's snapshot at exactly that index, captured by
// the apply worker (the sole applier, so the capture is consistent).
type compactReq struct {
	index int
	data  []byte
}

// hardStateBusy reports whether a SetState is staged or in flight: the
// term and vote in memory are then ahead of the disk, and a message that
// speaks for them must wait.
func (nd *Node) hardStateBusy() bool {
	if nd.stateDirty {
		return true
	}
	for _, b := range nd.pendingPersist {
		if b.setState {
			return true
		}
	}
	return false
}

// flush ends a main-loop iteration: every staged message whose claim the
// disk already backs leaves immediately; durable mutations, the messages
// still waiting on them and the accept replies (tickets) become one
// persist request — the Raft rule that persistence precedes
// externalization, enforced per claim. With nothing durable staged or in flight every
// claim is already met and everything leaves at once. After a
// persistence failure everything staged is dropped (nothing may be
// externalized over unpersisted state) and the loop stops the node.
func (nd *Node) flush() {
	if nd.fatal != nil {
		nd.stateDirty, nd.rewrote = false, false
		nd.pendingLog = nil
		nd.pendingSnap = nil
		nd.snapAfterMuts = 0
		nd.tracedUnsynced = nd.tracedUnsynced[:0]
		nd.outbox = nd.outbox[:0]
		nd.replies = nd.replies[:0]
		nd.rep.departed()
		return
	}
	havePersist := nd.stateDirty || len(nd.pendingLog) > 0 || nd.pendingSnap != nil
	stateBusy := nd.hardStateBusy()
	var fencedMsgs []outMsg
	var fencedReplies []stagedReply
	free := nd.outbox[:0]
	for _, m := range nd.outbox {
		if m.claim.index > nd.rep.durable || (m.claim.state && stateBusy) {
			fencedMsgs = append(fencedMsgs, m)
		} else {
			free = append(free, m)
		}
	}
	nd.transmit(free, false)
	nd.outbox = nd.outbox[:0]
	fence := havePersist || len(nd.pendingPersist) > 0
	released := nd.replies[:0]
	for _, r := range nd.replies {
		if fence && r.fenced {
			fencedReplies = append(fencedReplies, r)
			continue
		}
		released = append(released, r)
	}
	nd.release(released)
	nd.replies = nd.replies[:0]
	if havePersist || len(fencedMsgs) > 0 || len(fencedReplies) > 0 {
		nd.stagePersistBatch(fencedMsgs, fencedReplies)
	}
	// Sampled ops that rode no persist batch have no fsync phase.
	nd.tracedUnsynced = nd.tracedUnsynced[:0]
	nd.rep.departed()
	// A pass that released a caller lets that caller run before the loop
	// takes more input: the callers resubmit, and the next mailbox.take
	// finds them together — one confirmation round for the reads, one
	// AppendEntries for the proposals. A resolved ticket counts whether
	// or not it woke its caller: the pass that accepts a cohort's writes
	// steps aside for the apply that releases them. After the persist
	// hand-off, so the worker keeps runnext and still runs first.
	if len(released) > 0 {
		runtime.Gosched()
	}
}

// transmit is the one way a staged message reaches the Endpoint: a
// release set — what one flush lets go at once, or what one persist run
// releases (fenced) — is folded, and what is left is counted and sent.
// Send failures mean we crashed or the network is gone; the loop's next
// TryRecv will notice and stop, so they are safe to drop here.
func (nd *Node) transmit(set []outMsg, fenced bool) {
	for _, m := range nd.fold(set) {
		if _, ok := m.payload.(AppendEntriesReply); ok && fenced {
			nd.met.repliesFenced.Inc(nd.cfg.ID)
		} else if ok {
			nd.met.repliesFree.Inc(nd.cfg.ID)
		}
		_ = nd.cfg.Endpoint.Send(m.to, m.payload)
	}
}

// foldSlot is one peer's entry in fold's scratch: the position, plus
// one, of the set's latest success AppendEntriesReply to the peer and of
// its latest entry-carrying AppendEntries; 0 for none.
type foldSlot struct{ reply, app int }

// fold merges, in place, what one release set says more than once to the
// same peer, and returns what is left of the set, in order. Both rules
// rest on the leader taking maxima (replication's onAppendReply):
//
//   - A success AppendEntriesReply gives way to a later success to the
//     same peer in the same term, which takes the higher MatchIndex,
//     ReadID and claimed index: the set leaves as one, so the disk backs
//     the higher claim whichever message made it. Rejections and replies
//     of other terms stay as they are.
//   - An AppendEntries without entries (keep-alive or read probe) gives
//     way to the set's last entry-carrying AppendEntries to the same
//     peer in the same term, which takes the higher ReadID and
//     LeaderCommit: it leaves in this set, after every read that joined
//     the probe's round began, and the follower clamps the commit index
//     to the last entry it carries.
//
// Two sets never mix, so an unfenced reply never takes a fenced one's
// claim. A sampled append is unwrapped and keeps its trace ID.
func (nd *Node) fold(set []outMsg) []outMsg {
	if len(set) < 2 {
		return set
	}
	slots, folded := nd.folds, false
	clear(slots)
	for i := len(set) - 1; i >= 0; i-- {
		m, s := &set[i], &slots[set[i].to]
		_, payload := msgnet.TraceOf(m.payload)
		switch p := payload.(type) {
		case AppendEntriesReply:
			if !p.Success {
				break
			}
			if s.reply > 0 {
				into := &set[s.reply-1]
				if r := into.payload.(AppendEntriesReply); r.Term == p.Term {
					// Boxed again only when it changes: boxing allocates.
					if p.MatchIndex > r.MatchIndex || p.ReadID > r.ReadID {
						r.MatchIndex, r.ReadID = max(r.MatchIndex, p.MatchIndex), max(r.ReadID, p.ReadID)
						into.payload = r
					}
					into.claim.index = max(into.claim.index, m.claim.index)
					m.payload, folded = nil, true
					break
				}
			}
			s.reply = i + 1
		case AppendEntries:
			if len(p.Entries) > 0 && s.app == 0 {
				s.app = i + 1
			}
		}
	}
	for i := range set {
		m, s := &set[i], slots[set[i].to]
		p, ok := m.payload.(AppendEntries)
		if !ok || len(p.Entries) > 0 || s.app == 0 {
			continue
		}
		into := &set[s.app-1]
		id, payload := msgnet.TraceOf(into.payload)
		a := payload.(AppendEntries)
		if a.Term != p.Term {
			continue
		}
		if p.ReadID > a.ReadID || p.LeaderCommit > a.LeaderCommit {
			a.ReadID, a.LeaderCommit = max(a.ReadID, p.ReadID), max(a.LeaderCommit, p.LeaderCommit)
			into.payload = msgnet.WithTraceID(id, a)
		}
		m.payload, folded = nil, true
	}
	if !folded {
		return set
	}
	return slices.DeleteFunc(set, func(m outMsg) bool { return m.payload == nil })
}

// release hands out replies the pass no longer holds back: a read's on
// its channel, a proposal's by resolving its ticket.
func (nd *Node) release(rs []stagedReply) {
	tickets := 0
	for _, r := range rs {
		if r.ch == nil {
			tickets++
			continue
		}
		r.ch <- r.reply
	}
	if tickets > 0 {
		nd.applied.resolve(rs)
	}
}

// stagePersistBatch hands the iteration's staged durable work (possibly
// none: a pure fence barrier) to the persist worker and records what it
// will have made durable. The target is the log tail: whatever a staged
// truncation or snapshot install took away was clamped out of
// the durable index when it was staged (persistLog, persistSnapshot).
func (nd *Node) stagePersistBatch(msgs []outMsg, replies []stagedReply) {
	req := persistReq{
		setState:  nd.stateDirty,
		term:      nd.el.term,
		vote:      nd.el.votedFor,
		muts:      nd.pendingLog,
		snap:      nd.pendingSnap,
		snapAfter: nd.snapAfterMuts,
		msgs:      msgs,
		replies:   replies,
		rewrites:  nd.rewrote,
	}
	nd.stateDirty, nd.rewrote = false, false
	nd.pendingLog = nil // the worker owns the slice now
	nd.pendingSnap = nil
	nd.snapAfterMuts = 0
	if len(nd.tracedUnsynced) > 0 {
		req.traced = make([]rtrace.ID, 0, len(nd.tracedUnsynced))
		for _, idx := range nd.tracedUnsynced {
			if op, ok := nd.traced[idx]; ok {
				req.traced = append(req.traced, op.id)
			}
		}
		nd.tracedUnsynced = nd.tracedUnsynced[:0]
	}
	nd.pendingPersist = append(nd.pendingPersist, pendingBatch{target: nd.rep.log.lastIndex(), setState: req.setState})
	// A full queue is persistence backpressure. The worker never waits on
	// the loop (completions go into the mailbox), so this cannot deadlock.
	nd.persistQ <- req
	nd.met.persistDepth.Set(int64(len(nd.persistQ)))
}

// clampDurable lowers the durable index and every in-flight batch's target
// to at most idx: entries above it are being rewritten, so neither a
// claim made from now on nor the completion of an older batch may count
// them durable. The disk will hold the *new* entries at those indexes
// only once the batch staged after this call lands, and that batch
// rewrites when an in-flight one wrote them.
func (nd *Node) clampDurable(idx int) {
	nd.rep.durable = min(nd.rep.durable, idx)
	for i := range nd.pendingPersist {
		if nd.pendingPersist[i].target > idx {
			nd.pendingPersist[i].target = idx
			nd.rewrote = true
		}
	}
}

// persistWorker owns Storage after boot: one goroutine, runs in FIFO
// order, one completion per run into the mailbox. On each wakeup it
// greedily drains the queue and persists the whole run at once — this is
// where group commit survives pipelining: the main loop no longer blocks
// in fsync, so it stages many small batches, and the worker re-coalesces
// every batch that piled up behind the disk into (usually) a single
// AppendBatch call, one durability barrier for all of them — more than
// one only when a batch rewrites what an earlier one wrote (nextRun).
//
// flush() readies this goroutine last, so it runs ahead of the apply
// worker and the clients the same pass woke. It does not yield to them
// here: what this goroutine does for the barrier itself is the writes and
// the submit of their write-out (FileStorage.flush), neither of which
// blocks; the goroutine that blocks is whichever one reaches
// FileStorage.SyncDevice or the head of a SyncCoalescer round's
// write-back stage — often another group's worker — so the yield lives
// at those two, once per blocking stage, and a second one before the drain
// below bought write-tcp nothing and cost readmix-tcp's p50 11–20 %
// (DESIGN.md §3.1.6, rule 1).
func (nd *Node) persistWorker() {
	defer nd.workers.Done()
	for {
		select {
		case req := <-nd.persistQ:
			reqs := append(make([]persistReq, 0, 16), req)
		drained:
			for {
				select {
				case r := <-nd.persistQ:
					reqs = append(reqs, r)
				default:
					break drained
				}
			}
			for len(reqs) > 0 {
				n := nextRun(reqs)
				done := nd.doPersistRun(reqs[:n])
				if reqs = reqs[n:]; done.err != nil {
					done.n, reqs = done.n+len(reqs), nil // nothing lands after a failure
				}
				nd.box.mu.Lock()
				nd.box.persisted = append(nd.box.persisted, done)
				nd.box.ring()
			}
		case <-nd.stopped:
			return
		}
	}
}

// nextRun is how many of reqs, oldest first, land as one run: all of
// them up to the next that rewrites, which starts a run of its own. The
// bundles of the batches before it are then released while the disk
// holds what they claim, instead of after it has been rewritten — or
// without ever having held it, when one AppendBatch merges the write and
// its rewrite.
func nextRun(reqs []persistReq) int {
	n := 1
	for n < len(reqs) && !reqs[n].rewrites {
		n++
	}
	return n
}

// doPersistRun executes a run of batches, merging consecutive log
// mutations into single AppendBatch calls. Scalar state and snapshot
// records force a flush first, preserving the exact storage-call order
// the batches were staged in (term/vote of batch i lands after the
// entries of batches < i, before its own). On error the whole run's
// release bundle is withheld — nothing externalizes over unpersisted
// state — and the main loop stops the node.
func (nd *Node) doPersistRun(reqs []persistReq) persistDone {
	st := nd.cfg.Storage
	var muts []LogMutation
	var traced []rtrace.ID
	flush := func() error {
		if len(muts) == 0 {
			return nil
		}
		var t0 time.Time
		if len(traced) > 0 {
			t0 = time.Now()
		}
		nd.met.storageFlush.Inc(nd.cfg.ID) // atomic instruments; worker-safe
		nd.met.storageRecs.Add(nd.cfg.ID, int64(len(muts)))
		if err := st.AppendBatch(muts); err != nil {
			return err
		}
		if len(traced) > 0 {
			// One group-committed fsync; every traced op in the run
			// waited the full interval. Stamped here, it overlaps the
			// network phase the main loop opened at broadcast time. The
			// width marks whether the interval was a shared cross-group
			// barrier (sync coalescing) rather than a round of one.
			t1 := time.Now()
			width := barrierWidth(st)
			for _, id := range traced {
				nd.cfg.Tracer.ObserveFsync(id, nd.cfg.ID, t0, t1, width)
			}
		}
		muts, traced = muts[:0], traced[:0]
		return nil
	}
	done := persistDone{n: len(reqs)}
	for _, req := range reqs {
		if req.setState {
			if err := flush(); err != nil {
				return persistDone{err: err, n: len(reqs)}
			}
			if err := st.SetState(req.term, req.vote); err != nil {
				return persistDone{err: err, n: len(reqs)}
			}
		}
		pre := req.muts
		if req.snap != nil {
			if req.snapAfter < len(pre) {
				pre = pre[:req.snapAfter]
			}
			muts = append(muts, pre...)
			if err := flush(); err != nil {
				return persistDone{err: err, n: len(reqs)}
			}
			if err := st.SaveSnapshot(req.snap.index, req.snap.term, req.snap.data); err != nil {
				return persistDone{err: err, n: len(reqs)}
			}
			if req.snapAfter < len(req.muts) {
				muts = append(muts, req.muts[req.snapAfter:]...)
			}
		} else {
			muts = append(muts, pre...)
		}
		traced = append(traced, req.traced...)
		done.msgs = append(done.msgs, req.msgs...)
		done.replies = append(done.replies, req.replies...)
	}
	if err := flush(); err != nil {
		return persistDone{err: err, n: len(reqs)}
	}
	return done
}

// onPersistDone runs on the main loop when a run of batches lands:
// externalize the bundles that waited on it and report the run's last
// (possibly clamped) target to the core, which raises the durable index
// and counts it as the leader's own ack.
func (nd *Node) onPersistDone(d persistDone) {
	n := d.n
	if n < 1 {
		n = 1
	}
	// Clamping keeps targets non-decreasing, so the run's last is its
	// highest.
	target := nd.pendingPersist[n-1].target
	nd.pendingPersist = nd.pendingPersist[n:]
	nd.met.persistDepth.Set(int64(len(nd.persistQ)))
	if d.err != nil {
		nd.fatal = d.err
		return
	}
	nd.transmit(d.msgs, true)
	nd.release(d.replies)
	o := nd.rep.persisted(target)
	if nd.el.role == Leader {
		// Committed entries the leader had not yet persisted itself; a
		// disk ahead of the quorum reads 0.
		nd.met.selfAckLag.Observe(nd.cfg.ID, time.Duration(max(o.committed.after-nd.rep.durable, 0)))
	}
	nd.applyReplication(o)
}

// persistSnapshot stages a snapshot record for the persist worker,
// remembering how many already-staged log mutations precede it. A
// second snapshot in one iteration flushes the first as its own batch —
// record order on disk must match the logical order of mutations. An
// installed snapshot rewrites the log from its index up, which stops
// counting as durable now, that earlier batch's target included.
func (nd *Node) persistSnapshot(s *snapStage, installed bool) {
	if nd.persistQ == nil {
		return // no disk to wait for: the core counts the tail durable
	}
	if nd.pendingSnap != nil {
		nd.stagePersistBatch(nil, nil)
	}
	if installed {
		nd.clampDurable(s.index - 1)
	}
	nd.pendingSnap = s
	nd.snapAfterMuts = len(nd.pendingLog)
}

// enqueueApply hands one item to the apply worker; a full queue blocks
// the main loop (bounded-queue backpressure, never dropped work).
func (nd *Node) enqueueApply(it applyItem) {
	nd.applyQ <- it
	nd.met.applyDepth.Set(int64(len(nd.applyQ)))
}

// enqueueApplyEntries ships the newly committed range (old, index] to
// the apply worker and closes the traced network phase: with the fsync
// interval stamped independently by the persist worker, network runs
// from append/broadcast to quorum commit and the two may overlap.
func (nd *Node) enqueueApplyEntries(old, index int) {
	ents := make([]Entry, 0, index-old)
	for i := old + 1; i <= index; i++ {
		e, _ := nd.rep.log.entryAt(i)
		ents = append(ents, e)
	}
	var traced []applyTrace
	if len(nd.traced) > 0 {
		committed := time.Now()
		for i := old + 1; i <= index; i++ {
			if op, ok := nd.traced[i]; ok {
				nd.cfg.Tracer.ObservePhase(op.id, rtrace.PhaseNetwork, nd.cfg.ID, op.appended, committed)
				traced = append(traced, applyTrace{id: op.id, committed: committed})
				delete(nd.traced, i)
			}
		}
	}
	nd.enqueueApply(applyItem{first: old + 1, entries: ents, term: nd.el.term, traced: traced})
}

// applyWorker owns the state machine: applies committed batches in
// order, publishes the applied index, and drives snapshot compaction (it
// is the only goroutine that may call SnapshotData concurrently with
// applies).
func (nd *Node) applyWorker() {
	defer nd.workers.Done()
	applied := nd.applied.current()
	snapBase := applied // a node boots applied through its snapshot
	dead := false       // a fatal error was reported; drain without applying
	for {
		select {
		case it := <-nd.applyQ:
			if dead {
				continue
			}
			switch {
			case it.restore != nil:
				sm, ok := nd.cfg.StateMachine.(Snapshotter)
				if !ok {
					dead = nd.applyFatal(fmt.Errorf("raft: install snapshot: state machine is not a Snapshotter"))
					continue
				}
				if err := sm.RestoreSnapshot(it.restore.index, it.restore.data); err != nil {
					dead = nd.applyFatal(fmt.Errorf("raft: install snapshot: %w", err))
					continue
				}
				applied = it.restore.index
				snapBase = it.restore.index
				nd.emit(Event{Kind: EventApplied, Node: nd.cfg.ID, Term: it.term, Index: applied, Command: nil})
			default:
				for i, e := range it.entries {
					idx := it.first + i
					if nd.cfg.StateMachine != nil {
						nd.cfg.StateMachine.Apply(idx, e.Command)
					}
					nd.met.applied.Inc(nd.cfg.ID)
					nd.emit(Event{Kind: EventApplied, Node: nd.cfg.ID, Term: it.term, Index: idx, Command: e.Command})
				}
				if n := it.first + len(it.entries) - 1; n > applied {
					applied = n
				}
				if len(it.traced) > 0 {
					now := time.Now()
					for _, tr := range it.traced {
						nd.cfg.Tracer.ObservePhase(tr.id, rtrace.PhaseApply, nd.cfg.ID, tr.committed, now)
					}
				}
			}
			nd.applied.advance(applied)
			snapBase = nd.maybeCompactAsync(applied, snapBase)
		case <-nd.stopped:
			return
		}
	}
}

// maybeCompactAsync is the apply-side compaction trigger: once the
// applied index runs SnapshotThreshold past the last snapshot base, the
// worker captures the state machine's snapshot (consistent: it is the
// sole applier) and offers it to the main loop, which compacts the log
// and stages the durable record. A busy main loop skips the offer; the
// next batch retries.
func (nd *Node) maybeCompactAsync(applied, snapBase int) int {
	if nd.cfg.SnapshotThreshold <= 0 || applied-snapBase < nd.cfg.SnapshotThreshold {
		return snapBase
	}
	sm, ok := nd.cfg.StateMachine.(Snapshotter)
	if !ok {
		return snapBase
	}
	data, err := sm.SnapshotData()
	if err != nil {
		nd.applyFatal(fmt.Errorf("raft: snapshot: %w", err))
		return snapBase
	}
	nd.box.mu.Lock()
	if nd.box.compact == nil {
		nd.box.compact, snapBase = &compactReq{index: applied, data: data}, applied
	}
	nd.box.ring()
	return snapBase
}

// applyFatal reports a fatal apply-side error to the main loop. The
// worker keeps draining its queue afterward so the loop can never block
// on a dead consumer; the loop stops the node when it sees the error.
func (nd *Node) applyFatal(err error) bool {
	nd.box.mu.Lock()
	if nd.box.err == nil {
		nd.box.err = err
	}
	nd.box.ring()
	return true
}
