package raft

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ooc/internal/rtrace"
)

// ReadConsistency selects how a read is served (see Client.Read and
// Node.ReadIndexMode). The zero value is the strongest mode.
type ReadConsistency int

const (
	// ReadLinearizable serves the read through a ReadIndex round (Raft
	// §6.4): the leader records its commit index, confirms it is still
	// leader with one quorum round piggybacked on AppendEntries, waits for
	// applied ≥ readIndex, and answers from the local state machine — no
	// log append, no fsync.
	ReadLinearizable ReadConsistency = iota
	// ReadLease serves from the leader's clock-skew-discounted lease when
	// one is held (no quorum round at all), falling back to a ReadIndex
	// round when the lease has lapsed. Requires Config.LeaseDuration > 0
	// on every node; linearizable under the bounded-clock-drift assumption
	// documented in DESIGN.md §3.3.
	ReadLease
	// ReadStale reads the local state machine with no coordination and no
	// consistency guarantee beyond "some applied prefix of the log".
	ReadStale
)

var readConsistencyNames = map[ReadConsistency]string{
	ReadLinearizable: "linearizable",
	ReadLease:        "lease",
	ReadStale:        "stale",
}

// String implements fmt.Stringer.
func (rc ReadConsistency) String() string {
	if n, ok := readConsistencyNames[rc]; ok {
		return n
	}
	return fmt.Sprintf("ReadConsistency(%d)", int(rc))
}

// ParseReadConsistency maps a flag value ("linearizable", "lease",
// "stale") to its ReadConsistency.
func ParseReadConsistency(s string) (ReadConsistency, error) {
	for rc, name := range readConsistencyNames {
		if name == s {
			return rc, nil
		}
	}
	return 0, fmt.Errorf("raft: unknown read consistency %q (want linearizable, lease, or stale)", s)
}

// readReq is one read waiting on the main loop, mirroring proposeReq.
type readReq struct {
	mode  ReadConsistency
	reply chan proposeReply
	t0    time.Time
	trace rtrace.ID // 0 unless this read is sampled
}

// readWaiter is one read the leader answers: either a local caller
// (ch != nil) or a follower-forwarded request to answer with a
// ReadIndexReply.
type readWaiter struct {
	ch    chan proposeReply // local waiter; nil for a forwarded read
	from  int               // forwarding follower (when ch == nil)
	id    int64             // forwarded request correlation id
	lease bool              // client asked for ReadLease semantics
	trace rtrace.ID         // 0 unless sampled
}

// roundWaiter is a read waiting on the core's confirmation round.
type roundWaiter struct {
	round readRound
	w     readWaiter
}

// readStats are always-on counters (independent of the metrics
// registry) so harnesses can attribute reads to the path that served
// them without wiring telemetry.
type readStats struct {
	lease     atomic.Int64 // served from a held lease, no quorum round
	index     atomic.Int64 // served by a confirmed ReadIndex round
	stale     atomic.Int64 // served locally with no coordination
	forwarded atomic.Int64 // forwarded to the leader by this follower
}

// ReadStats reports how many reads this node has served per path:
// lease fast path, confirmed ReadIndex rounds, stale local reads, and
// reads forwarded to the leader while this node was a follower.
func (nd *Node) ReadStats() (lease, index, stale, forwarded int64) {
	return nd.rstats.lease.Load(), nd.rstats.index.Load(),
		nd.rstats.stale.Load(), nd.rstats.forwarded.Load()
}

// ReadIndex returns a linearizable read index: once it returns, this
// node's state machine has applied every entry committed before the
// call, and reading it observes a state no older than that point. It is
// served without appending to the log (Raft §6.4). On a follower the
// request is forwarded to the leader and the follower waits for its own
// apply index to catch up before returning.
func (nd *Node) ReadIndex(ctx context.Context) (int, error) {
	return nd.ReadIndexMode(ctx, ReadLinearizable)
}

// ReadIndexMode is ReadIndex with an explicit consistency mode:
// ReadLinearizable always runs a confirmation round, ReadLease uses the
// leader's lease when valid (falling back to a round), and ReadStale
// returns the local applied index immediately, without entering the
// main loop.
//
// The loop answers a read once its index is confirmed (§6.4's first
// half); the caller then waits for its own state machine to apply that
// far (the second half) on the applied notifier, as AwaitApplied does.
// That wait ignores term changes: the read's linearization point is
// already fixed, and a later leader's entries advance the apply index.
func (nd *Node) ReadIndexMode(ctx context.Context, mode ReadConsistency) (int, error) {
	if err := nd.admit(ctx); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if mode == ReadStale {
		nd.rstats.stale.Add(1)
		nd.met.onReadServed("stale", t0)
		return nd.applied.current(), nil
	}
	req := readReq{mode: mode, reply: make(chan proposeReply, 1), t0: t0, trace: rtrace.FromContext(ctx)}
	nd.box.mu.Lock()
	nd.box.reads = append(nd.box.reads, req)
	nd.box.ring()
	var rep proposeReply
	select {
	case rep = <-req.reply:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-nd.stopped:
		return 0, nd.stopErr
	}
	if rep.err != nil {
		return 0, rep.err
	}
	confirmed := nd.cfg.Tracer.Now(req.trace) // the apply phase's start; sampled only
	if nd.applied.current() < rep.index {
		if _, err := nd.AwaitApplied(ctx, rep.index); err != nil {
			return 0, err
		}
	}
	nd.met.onReadServed(readModeLabel(rep.lease), t0)
	if req.trace != 0 {
		nd.cfg.Tracer.ObservePhase(req.trace, rtrace.PhaseApply, nd.cfg.ID, confirmed, time.Now())
	}
	return rep.index, nil
}

// ---- main-loop read handling ----

// handleReadBatch dispatches the pass's batch of local reads: leader
// reads take the lease or ReadIndex path, and follower reads are
// forwarded to the leader.
func (nd *Node) handleReadBatch(reqs []readReq) {
	var now, drained time.Time // one clock read each however many reads
	for _, r := range reqs {
		if r.trace != 0 {
			if drained.IsZero() {
				drained = time.Now()
			}
			nd.cfg.Tracer.ObservePhase(r.trace, rtrace.PhaseQueue, nd.cfg.ID, r.t0, drained)
		}
		w := readWaiter{ch: r.reply, lease: r.mode == ReadLease, trace: r.trace}
		if nd.el.role != Leader {
			nd.forwardRead(w)
			continue
		}
		if now.IsZero() {
			now = nd.cfg.Clock.Now()
		}
		nd.leaderRead(w, now)
	}
}

// forwardRead relays a follower-received read to the known leader, or
// fails it when no leader is known (the client retries after backoff).
func (nd *Node) forwardRead(w readWaiter) {
	if nd.el.leader == none || nd.el.leader == nd.cfg.ID {
		nd.replies = append(nd.replies, stagedReply{ch: w.ch, reply: proposeReply{err: ErrNotLeader{LeaderID: none}}})
		return
	}
	nd.relaySeq++
	nd.relay[nd.relaySeq] = w.ch
	nd.rstats.forwarded.Add(1)
	nd.met.onReadForwarded()
	nd.send(nd.el.leader, ReadIndexRequest{Term: nd.el.term, ID: nd.relaySeq, Lease: w.lease})
}

// leaderRead serves one read on the leader at now: the core answers it
// from the lease or names the confirmation round it waits on.
func (nd *Node) leaderRead(w readWaiter, now time.Time) {
	round, o := nd.rep.read(now, w.lease)
	if round.id == 0 {
		if w.ch != nil {
			nd.rstats.lease.Add(1)
		}
		// Lease path: no quorum round, so the network phase is zero and
		// the read index is valid right now.
		nd.resolveRead(w, round.index, true)
		return
	}
	if w.lease {
		nd.met.onLeaseExpired()
		// A lapsed lease on a live leader means heartbeats stalled long
		// enough to matter — dump the run-up.
		nd.cfg.Flight.Trigger(rtrace.EvLeaseExpired, w.trace, int64(nd.el.term), int64(nd.rep.commit), "")
	}
	nd.reads = append(nd.reads, roundWaiter{round: round, w: w})
	if o != nil {
		nd.applyReplication(o)
	}
}

// confirmReads releases the waiters of every round through the
// confirmed id, each at its round's read index.
func (nd *Node) confirmReads(through int) {
	var confirmedAt time.Time // shared: the rounds confirmed together
	done, first := 0, 0
	for done < len(nd.reads) && nd.reads[done].round.id <= through {
		r, w := &nd.reads[done].round, &nd.reads[done].w
		if w.trace != 0 {
			if confirmedAt.IsZero() {
				confirmedAt = time.Now()
			}
			// Network phase: probe broadcast to quorum echo.
			nd.cfg.Tracer.ObservePhase(w.trace, rtrace.PhaseNetwork, nd.cfg.ID, r.start, confirmedAt)
		}
		if w.ch != nil {
			nd.rstats.index.Add(1)
		}
		nd.resolveRead(*w, r.index, false)
		if done++; done == len(nd.reads) || nd.reads[done].round.id != r.id {
			nd.met.onReadRound(done - first)
			nd.cfg.Flight.Record(rtrace.EvReadRound, 0, int64(r.index), int64(done-first), "")
			first = done
		}
	}
	// Shift rather than re-slice: the backing array is reused, so a
	// steady stream of rounds appends without allocating.
	n := copy(nd.reads, nd.reads[done:])
	clear(nd.reads[n:])
	nd.reads = nd.reads[:n]
}

// readModeLabel names the path that actually served a read, for the
// per-mode counters.
func readModeLabel(lease bool) string {
	if lease {
		return "lease"
	}
	return "readindex"
}

// resolveRead delivers a confirmed read index: a forwarded read answers
// its follower (which counts the read there, attributed by the Lease
// flag), a local read its caller, who waits for the local state machine
// to apply through index (ReadIndexMode). lease records whether the
// index came from a held lease or a quorum round.
func (nd *Node) resolveRead(w readWaiter, index int, lease bool) {
	if w.ch == nil {
		nd.send(w.from, ReadIndexReply{Term: nd.el.term, ID: w.id, Index: index, Success: true, Lease: lease, LeaderID: nd.cfg.ID})
		return
	}
	nd.replies = append(nd.replies, stagedReply{ch: w.ch, reply: proposeReply{index: index, lease: lease}})
}

// failReads fails every read the node cannot serve any more: those
// waiting on a round (leadership is gone or unproven) and follower-side
// relays (the answering leader may be gone). A read already answered
// with its index is out of the loop's hands: its caller waits on the
// apply, which a later leader's entries advance. Called on every term
// change and step down (applyElection).
func (nd *Node) failReads() {
	rep := proposeReply{err: ErrNotLeader{LeaderID: none}}
	for _, rw := range nd.reads {
		if w := rw.w; w.ch != nil {
			nd.replies = append(nd.replies, stagedReply{ch: w.ch, reply: rep})
		} else {
			nd.send(w.from, ReadIndexReply{Term: nd.el.term, ID: w.id, Success: false, LeaderID: nd.el.leader})
		}
	}
	clear(nd.reads)
	nd.reads = nd.reads[:0]
	if nd.rep.endReign(nd.cfg.Clock.Now()) {
		nd.met.onLeaseInvalidated()
	}
	for id, ch := range nd.relay {
		nd.replies = append(nd.replies, stagedReply{ch: ch, reply: rep})
		delete(nd.relay, id)
	}
}

// ---- forwarded-read message handlers (main loop only) ----

func (nd *Node) onReadIndexRequest(from int, m ReadIndexRequest) {
	if nd.el.role != Leader || m.Term != nd.el.term {
		// Carry this node's leader hint so the forwarding follower — and
		// ultimately the remote client — can re-route in one hop instead
		// of probing (the cross-process NotLeader redirect).
		nd.send(from, ReadIndexReply{Term: nd.el.term, ID: m.ID, Success: false, LeaderID: nd.el.leader})
		return
	}
	nd.leaderRead(readWaiter{from: from, id: m.ID, lease: m.Lease}, nd.cfg.Clock.Now())
}

func (nd *Node) onReadIndexReply(from int, m ReadIndexReply) {
	ch, ok := nd.relay[m.ID]
	if !ok {
		return // superseded by a term change (failReads), or a duplicate
	}
	delete(nd.relay, m.ID)
	if !m.Success {
		// Prefer the replier's hint: it refused because it is not the
		// leader (or not in our term), and it usually knows who is —
		// fresher than our own leaderID, which may still name the
		// replier itself.
		hint := m.LeaderID
		if hint == none {
			hint = nd.el.leader
		}
		nd.replies = append(nd.replies, stagedReply{ch: ch, reply: proposeReply{err: ErrNotLeader{LeaderID: hint}}})
		return
	}
	if m.Lease {
		nd.rstats.lease.Add(1)
	} else {
		nd.rstats.index.Add(1)
	}
	nd.resolveRead(readWaiter{ch: ch}, m.Index, m.Lease)
}
