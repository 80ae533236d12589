package raft

import (
	"cmp"
	"slices"
	"time"
)

// replication is the log, the commit index, the leader's per-peer
// progress and its read rounds as one pure state machine: the back of the
// paper's agreement detector (Alg. 10), where an entry landing in a log is
// adopt, the commit index covering it is commit, and a linearizable read
// asks for that commit. The node drives it: each entry point returns a
// repOut, which the node carries out in applyReplication. The core reads
// term and role from the election core and owns no clock, channel,
// goroutine or telemetry; the time a read or a tick happens at is its
// caller's.
type replication struct {
	id, n int
	el    *election // read only: the term entries are stamped with, and the role
	log   raftLog
	// commit is the commit index; durable the self-ack: the highest index
	// the node reports on its disk (the log tail when there is no disk).
	commit, durable int
	diskless        bool // no Storage: a write is durable as it is made
	restores        bool // the state machine is a Snapshotter: installs are taken
	peers           []progress
	buf             []outMsg // the messages of the call in progress
	o               repOut   // its output, handed out by pointer
	quorum          []int    // quorumIndex's scratch
	order           []int    // probe's scratch

	// The leader's reads (§6.4). readSeq is the latest round id, which
	// every AppendEntries carries; rounds are the unconfirmed ones, oldest
	// first, and fresh says the newest one's probe has not left yet, so a
	// read at its index may still join it. termStart is the index of this
	// reign's opening no-op; leaseUntil the held lease's expiry, lease its
	// length (Config.LeaseDuration, 0 for none).
	readSeq    int
	rounds     []readRound
	fresh      bool
	termStart  int
	leaseUntil time.Time
	lease      time.Duration
}

// readRound is one leadership-confirmation round: the reads that join it
// answer at index once a quorum has echoed id, which proves this node led
// after start — the lease's anchor.
type readRound struct {
	id, index int
	start     time.Time
}

// progress is the leader's view of one peer, reset on winning. inflight
// lists the unacknowledged entry-carrying AppendEntries by the last index
// each carried, oldest first, bounded by maxInflightAppends; a snapshot
// takes one slot at its index. acked records that a reply arrived since
// the last heartbeat, which otherwise rewinds a window with appends in
// flight (lost messages) to match+1. readAck is the highest
// read-round id the peer has echoed this term (AppendEntries.ReadID).
type progress struct {
	next, match int
	inflight    []int
	acked       bool
	readAck     int
}

// span is the index range (after, through]; empty when they are equal.
type span struct{ after, through int }

// repOut is what one replication step asks of the node that drives it.
// The core reuses it: it is valid until the next call.
type repOut struct {
	mut  LogMutation // with persist, to stage: Storage.TruncateAndAppend semantics
	msgs []outMsg    // to stage, claims set
	// adopted is the range the log took in (written or overwritten), and
	// committed the range the commit index moved over.
	adopted, committed span
	// snap is a snapshot record to stage, nil if none; with restore it was
	// installed from the leader and the state machine must load it.
	snap *snapStage
	// confirmed is the newest read round a quorum confirmed (0: none),
	// every older one with it, and leased says the lease moved out.
	confirmed int
	persist   bool // the log changed above mut.PrevIndex
	restore   bool
	leased    bool
}

func newReplication(cfg *Config, n int, el *election) replication {
	_, restores := cfg.StateMachine.(Snapshotter)
	return replication{id: cfg.ID, n: n, el: el, diskless: cfg.Storage == nil, restores: restores,
		lease: cfg.LeaseDuration, peers: make([]progress, n), quorum: make([]int, n), order: make([]int, 0, n)}
}

// restore loads the log a node boots with from its disk: all of it
// durable, the snapshot committed.
func (r *replication) restore(st PersistentState) {
	r.log = raftLog{entries: st.Entries, snapIndex: st.SnapIndex, snapTerm: st.SnapTerm, snapData: st.SnapData}
	r.commit, r.durable = st.SnapIndex, r.log.lastIndex()
}

// quorumIndex is the one quorum rule: the largest v that a majority of
// vals holds at or above. It reorders vals.
func quorumIndex(vals []int) int {
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}

// out starts an entry point's output: no messages, empty ranges at the
// log tail and the commit index; done ends it.
func (r *replication) out() *repOut {
	r.buf = r.buf[:0]
	r.o = repOut{adopted: span{r.log.lastIndex(), r.log.lastIndex()}, committed: span{r.commit, r.commit}}
	return &r.o
}

func (r *replication) done(o *repOut) *repOut {
	o.msgs = r.buf
	o.committed.through = r.commit
	if r.diskless {
		r.durable = r.log.lastIndex()
	}
	return o
}

// win resets every peer's progress for a new reign: next after the
// leader's last entry, nothing matched, acknowledged or echoed. The reign
// opens at the next index, where its no-op goes, with no lease and no
// round.
func (r *replication) win() {
	for i := range r.peers {
		p := &r.peers[i]
		*p = progress{next: r.log.lastIndex() + 1, inflight: p.inflight[:0]}
	}
	r.termStart = r.log.lastIndex() + 1
	r.endReign(time.Time{})
}

// endReign drops the reign's read rounds and lease, and reports whether
// a lease still held at now was cut short.
func (r *replication) endReign(now time.Time) (cut bool) {
	cut = now.Before(r.leaseUntil)
	r.rounds, r.fresh, r.leaseUntil = r.rounds[:0], false, time.Time{}
	return cut
}

// propose is the one leader append, for proposal batches and the
// term-opening no-op alike: the commands become one mutation in the
// current term, and every peer's open window takes them.
func (r *replication) propose(cmds []any) *repOut {
	o := r.out()
	for _, cmd := range cmds {
		r.log.appendEntry(Entry{Term: r.el.term, Command: cmd})
	}
	o.adopted.through = r.log.lastIndex()
	o.persist, o.mut = true, LogMutation{PrevIndex: o.adopted.after, Entries: r.log.slice(o.adopted.after + 1)}
	if r.diskless {
		r.durable = r.log.lastIndex()
	}
	r.advance()
	for peer := range r.peers {
		if peer != r.id {
			r.push(peer)
		}
	}
	return r.done(o)
}

// persisted reports a landed persist target: the disk holds the log
// through index, which the leader counts as its own ack.
func (r *replication) persisted(index int) *repOut {
	o := r.out()
	if index > r.durable {
		r.durable = index
		r.advance()
	}
	return r.done(o)
}

// heartbeat is the leader's tick at now: per peer, rewind a stalled
// window, then push what is pending, or a keep-alive that carries the
// commit index when nothing is. With leases on and no round pending it
// opens one first, which the tick's messages probe for, so an idle
// leader's lease stays warm; with a round pending its confirmation
// renews the lease, and more would only pile up on a partitioned leader.
func (r *replication) heartbeat(now time.Time) *repOut {
	o := r.out()
	if r.lease > 0 && len(r.rounds) == 0 {
		r.open(now, max(r.commit, r.termStart))
	}
	for peer := range r.peers {
		if peer == r.id {
			continue
		}
		p := &r.peers[peer]
		if len(p.inflight) > 0 && !p.acked {
			p.inflight, p.next = p.inflight[:0], p.match+1
		}
		p.acked = false
		if !r.push(peer) {
			r.appendTo(peer, 0)
		}
	}
	o.confirmed, o.leased = r.confirm()
	return r.done(o)
}

// read takes one linearizable read on the leader at now. Its index is
// the one read-index rule, max(commit, termStart): an entry committed
// before the read lies below termStart (leader completeness) or, committed
// in this reign, at most at commit; its caller waits (ReadIndexMode) until
// the state machine reaches it. With lease set and the lease held the read
// answers at once, in round 0. Otherwise the returned round answers it
// once confirmed: the newest pending round when it is at the same index
// and its probe has not left, since a probe that leaves after the read
// began proves leadership after it; else a new round, with its probe. The
// output is nil when the read opened no round.
func (r *replication) read(now time.Time, lease bool) (readRound, *repOut) {
	index := max(r.commit, r.termStart)
	if lease && now.Before(r.leaseUntil) {
		return readRound{index: index}, nil
	}
	if n := len(r.rounds); n > 0 && r.fresh && r.rounds[n-1].index == index {
		return r.rounds[n-1], nil
	}
	o := r.out()
	round := r.open(now, index)
	r.probe()
	o.confirmed, o.leased = r.confirm() // a one-node group is its own quorum
	return round, r.done(o)
}

// probe sends a new round's entry-less AppendEntries to the ⌊n/2⌋
// followers that make a quorum with this leader (thrifty, as in EPaxos):
// the latest echoers first (readAck), then by match, then by id, so a
// schedule replays; a peer whose probe would be a snapshot, which carries
// no round, goes last. The rest hear the round on the next heartbeat or
// append, so a silent probed peer delays a confirmation one heartbeat at
// most. The probe leaves the windows' stall bookkeeping alone: rounds
// fire far more often than the heartbeat, and clearing the acked flags
// that often would make healthy windows look stalled.
func (r *replication) probe() {
	order := r.order[:0]
	for peer := range r.peers {
		if peer != r.id {
			order = append(order, peer)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := &r.peers[a], &r.peers[b]
		return cmp.Or(cmp.Compare(r.lags(pa), r.lags(pb)), cmp.Compare(pb.readAck, pa.readAck),
			cmp.Compare(pb.match, pa.match), cmp.Compare(a, b))
	})
	for _, peer := range order[:r.n/2] {
		r.appendTo(peer, 0)
	}
}

// lags is 1 when p's next entry was compacted away (it is due the snapshot), else 0.
func (r *replication) lags(p *progress) int {
	if p.next <= r.log.snapIndex {
		return 1
	}
	return 0
}

// departed reports that the pass's messages have left: the newest round's
// probe is on the wire, so a later read needs a round of its own.
func (r *replication) departed() { r.fresh = false }

// open starts the next round at index.
func (r *replication) open(now time.Time, index int) readRound {
	r.readSeq++
	round := readRound{id: r.readSeq, index: index, start: now}
	r.rounds, r.fresh = append(r.rounds, round), true
	return round
}

// confirm retires the rounds a quorum has echoed — the quorum index over
// readAck, this leader counting itself at the latest round — oldest first
// (echoes are monotonic, so confirmation is prefix-closed), extends the
// lease from the newest one's start, and names the newest one.
func (r *replication) confirm() (through int, leased bool) {
	for i, p := range r.peers {
		r.quorum[i] = p.readAck
	}
	r.quorum[r.id] = r.readSeq
	quorum, n := quorumIndex(r.quorum), 0
	for n < len(r.rounds) && r.rounds[n].id <= quorum {
		n++
	}
	if n == 0 {
		return 0, false
	}
	newest := r.rounds[n-1]
	if until := newest.start.Add(r.lease); r.lease > 0 && until.After(r.leaseUntil) {
		r.leaseUntil, leased = until, true
	}
	r.rounds = r.rounds[:copy(r.rounds, r.rounds[n:])]
	return newest.id, leased
}

// advance is the leader commit rule: the quorum index over match, this
// leader counting itself at its disk, commits once that entry is of the
// current term (§5.4.2) — earlier terms' entries commit under it.
func (r *replication) advance() {
	if r.el.role != Leader {
		return
	}
	for i, p := range r.peers {
		r.quorum[i] = p.match
	}
	r.quorum[r.id] = r.durable
	if q := quorumIndex(r.quorum); q > r.commit {
		if t, _ := r.log.termAt(q); t == r.el.term {
			r.commit = q
		}
	}
}

// push fills peer's window with entries at most maxEntriesPerAppend to a
// message, and reports whether it sent anything.
func (r *replication) push(peer int) bool {
	p, sent := &r.peers[peer], false
	for len(p.inflight) < maxInflightAppends && p.next <= r.log.lastIndex() {
		r.appendTo(peer, maxEntriesPerAppend)
		sent = true
	}
	return sent
}

// appendTo builds every AppendEntries: to peer from its next index with
// at most limit entries — none for a keep-alive or a probe, which take no
// window slot. When that index was compacted away it sends the snapshot
// instead, which takes one slot at the snapshot's index.
func (r *replication) appendTo(peer, limit int) {
	p := &r.peers[peer]
	if p.next <= r.log.snapIndex {
		p.inflight = append(p.inflight, r.log.snapIndex)
		p.next = r.log.snapIndex + 1
		r.send(peer, InstallSnapshot{Term: r.el.term, LeaderID: r.id, LastIncludedIndex: r.log.snapIndex,
			LastIncludedTerm: r.log.snapTerm, Data: r.log.snapData})
		return
	}
	prev := p.next - 1
	prevTerm, ok := r.log.termAt(prev)
	if !ok {
		prev, prevTerm = 0, 0
	}
	m := AppendEntries{Term: r.el.term, LeaderID: r.id, PrevLogIndex: prev, PrevLogTerm: prevTerm,
		LeaderCommit: r.commit, ReadID: r.readSeq}
	if limit > 0 {
		m.Entries = r.log.sliceLimit(p.next, limit)
		p.next += len(m.Entries) // optimistic; a rejection rewinds it
		p.inflight = append(p.inflight, p.next-1)
	}
	r.send(peer, m)
}

// send stages a leader message: AppendEntries and InstallSnapshot claim
// nothing about this node's disk (the receiver persists before it
// acknowledges, and a leader's term reached its disk before the votes
// that elected it left).
func (r *replication) send(to int, m any) {
	r.buf = append(r.buf, outMsg{to: to, payload: m})
}

// reply stages an AppendEntriesReply: it names this node's term and, on
// success, says the disk holds the leader's log through MatchIndex.
func (r *replication) reply(to int, m AppendEntriesReply) {
	r.buf = append(r.buf, outMsg{to: to, payload: m, claim: claim{index: m.MatchIndex, state: true}})
}

// onAppend is the follower's side, run after the election core has
// recognized the sender as this term's leader unless its term is stale.
// The log adopts the entries past the matched prefix, overwriting a
// conflicting suffix, and the commit index follows the leader's.
func (r *replication) onAppend(from int, m AppendEntries) *repOut {
	o := r.out()
	term := r.el.term
	if m.Term < term {
		r.reply(from, AppendEntriesReply{Term: term})
		return r.done(o)
	}
	// Entries at or below the compaction point are committed and applied
	// already; renormalize the consistency check to the snapshot marker.
	if m.PrevLogIndex < r.log.snapIndex {
		cut := r.log.snapIndex - m.PrevLogIndex
		if cut >= len(m.Entries) {
			r.reply(from, AppendEntriesReply{Term: term, Success: true, MatchIndex: min(r.log.snapIndex, r.durable), ReadID: m.ReadID})
			return r.done(o)
		}
		m.Entries = m.Entries[cut:]
		m.PrevLogIndex, m.PrevLogTerm = r.log.snapIndex, r.log.snapTerm
	}
	if !r.log.matches(m.PrevLogIndex, m.PrevLogTerm) {
		// The rejection still echoes ReadID: this follower acknowledged the
		// sender as the term's leader, all a read confirmation needs.
		hint := min(m.PrevLogIndex-1, r.log.lastIndex())
		r.reply(from, AppendEntriesReply{Term: term, RejectHint: hint, ReadID: m.ReadID})
		return r.done(o)
	}
	// The first entry the log lacks or holds in another term is where the
	// write starts — past the tail, or over a conflicting suffix.
	first := 0
	for i, e := range m.Entries {
		if t, ok := r.log.termAt(m.PrevLogIndex + 1 + i); !ok || t != e.Term {
			first = m.PrevLogIndex + 1 + i
			break
		}
	}
	lastNew, _ := r.log.appendAfter(m.PrevLogIndex, m.Entries)
	// A write acknowledges through lastNew, so the reply waits for this
	// mutation's persist. An append that wrote nothing — a heartbeat, a
	// probe, a retransmission — acknowledges only what the disk holds of
	// the matched prefix and waits for nothing; the leader takes the
	// maximum over replies, so the lower index costs nothing.
	match := min(lastNew, r.durable)
	if first > 0 {
		match = lastNew
		o.adopted = span{first - 1, lastNew}
		o.persist, o.mut = true, LogMutation{PrevIndex: m.PrevLogIndex, Entries: m.Entries}
	}
	if m.LeaderCommit > r.commit {
		r.commit = max(r.commit, min(m.LeaderCommit, lastNew))
	}
	r.reply(from, AppendEntriesReply{Term: term, Success: true, MatchIndex: match, ReadID: m.ReadID})
	return r.done(o)
}

// onAppendReply is the leader's side: any reply in the term proves the
// window live and echoes a read round; a success raises match and next,
// retires the appends it covers and may commit; a rejection rewinds next
// to the follower's hint, never to or below match — a rejection that
// would is stale, overtaken by the success that raised match — and the
// window refills from there.
func (r *replication) onAppendReply(from int, m AppendEntriesReply) *repOut {
	o := r.out()
	if r.el.role != Leader || m.Term != r.el.term {
		return r.done(o)
	}
	p := &r.peers[from]
	p.acked = true
	if m.ReadID > p.readAck {
		p.readAck = m.ReadID
		o.confirmed, o.leased = r.confirm()
	}
	switch {
	case m.Success:
		p.match = max(p.match, m.MatchIndex)
		done := 0
		for done < len(p.inflight) && p.inflight[done] <= p.match {
			done++
		}
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[done:])]
		// Only raise next: a reply to an older append must not rewind past
		// entries already in flight.
		p.next = max(p.next, p.match+1)
		r.advance()
	case m.RejectHint+1 > p.match:
		p.inflight = p.inflight[:0]
		p.next = max(min(p.next-1, m.RejectHint+1), p.match+1)
	}
	r.push(from)
	return r.done(o)
}

// install is the follower's side of InstallSnapshot, run like onAppend.
// A snapshot the commit index already covers is acknowledged through the
// commit index; a newer one replaces the log by the suffix rule
// (snapshotAt), becomes the commit index, and is staged and restored. Its
// acknowledgement claims the snapshot, so it waits for the record.
func (r *replication) install(from int, m InstallSnapshot) *repOut {
	o := r.out()
	term := r.el.term
	switch {
	case m.Term < term:
		r.reply(from, AppendEntriesReply{Term: term})
	case m.LastIncludedIndex <= r.commit:
		r.reply(from, AppendEntriesReply{Term: term, Success: true, MatchIndex: r.commit})
	case !r.restores:
		r.reply(from, AppendEntriesReply{Term: term})
	default:
		r.log.snapshotAt(m.LastIncludedIndex, m.LastIncludedTerm, m.Data)
		r.commit = m.LastIncludedIndex
		// The restore, not an apply batch, brings the state machine here.
		o.committed.after = r.commit
		o.snap, o.restore = &snapStage{index: m.LastIncludedIndex, term: m.LastIncludedTerm, data: m.Data}, true
		r.reply(from, AppendEntriesReply{Term: term, Success: true, MatchIndex: m.LastIncludedIndex})
	}
	return r.done(o)
}

// compact discards the log through index, which data — the state
// machine's snapshot there — covers; index is applied, hence committed
// and never rewritten. A restart or an install already past it leaves
// the log alone.
func (r *replication) compact(index int, data []byte) *repOut {
	o := r.out()
	if t, ok := r.log.termAt(index); ok && index > r.log.snapIndex {
		r.log.snapshotAt(index, t, data)
		o.snap = &snapStage{index: index, term: t, data: data}
	}
	return r.done(o)
}
