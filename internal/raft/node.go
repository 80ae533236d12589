package raft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// ErrNotLeader is returned by Propose on a non-leader; it carries the
// last known leader as a redirect hint.
type ErrNotLeader struct {
	LeaderID int // none (-1) when unknown
}

// Error implements error.
func (e ErrNotLeader) Error() string {
	return fmt.Sprintf("raft: not leader (known leader: %d)", e.LeaderID)
}

// ErrStopped is returned once the node has stopped. When a persistence
// or apply error stopped it, the error returned wraps ErrStopped with
// that cause; match it with errors.Is.
var ErrStopped = errors.New("raft: node stopped")

// Config configures a Node.
type Config struct {
	// ID is this node's index in [0, N); Endpoint its network handle.
	ID       int
	Endpoint msgnet.Endpoint
	// Clock defaults to the real clock; tests inject sim.NewFakeClock().
	Clock sim.Clock
	// RNG drives election-timer randomization. Required.
	RNG *sim.RNG
	// ElectionTimeout is the base T of the randomized election timer;
	// actual timeouts are uniform in [T, 2T). Default 150ms.
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's replication cadence. Default
	// ElectionTimeout/5.
	HeartbeatInterval time.Duration
	// StateMachine receives committed entries in order; may be nil.
	StateMachine StateMachine
	// Storage, if non-nil, persists currentTerm/votedFor/log: the node
	// restores from it in NewNode and persists before acting on any state
	// change. A node restarted with the same Storage resumes safely (it
	// keeps its vote and log across the crash).
	Storage Storage
	// SnapshotThreshold triggers log compaction: once more than this many
	// entries have been applied beyond the last snapshot, the node asks
	// its StateMachine (which must implement Snapshotter) for a snapshot
	// and discards the covered log prefix. Followers that fall behind the
	// compaction point are caught up with InstallSnapshot. 0 disables
	// compaction.
	SnapshotThreshold int
	// PreVote enables the PreVote extension: before a real election the
	// node probes whether a majority would grant it a vote for term+1,
	// and only then increments its term. A processor cut off from the
	// majority therefore never inflates its term, and cannot depose a
	// healthy leader when it reconnects.
	PreVote bool
	// ManualCampaign disables automatic candidacy on timeout: the timer
	// only emits EventTimeout and the application calls Campaign. This is
	// the mode the VAC decomposition runs in, where the reconciliator —
	// not the node — owns the timer's consequence.
	ManualCampaign bool
	// LeaseDuration enables leader leases for the read fast path: after
	// each quorum-confirmed round the leader may serve ReadLease reads
	// without any further messaging until the lease (anchored at the
	// round's start) expires. 0 disables leases — lease-mode reads then
	// fall back to ReadIndex rounds. Safety requires the lease to expire
	// before any other node can be elected, so normalization clamps it to
	// 9/10 of ElectionTimeout (the missing tenth is the clock-skew
	// allowance), and enabling leases also enables the leader-stickiness
	// vote rule (a node refuses to vote while it leads or has heard from
	// its leader within its election deadline — Raft dissertation §4.2.3).
	// Every node in a cluster must agree on whether leases are enabled.
	LeaseDuration time.Duration
	// Metrics, if non-nil, receives counters, gauges, and latency
	// histograms (term changes, elections, heartbeats, commit latency).
	Metrics *metrics.Registry
	// Tracer, if non-nil, receives per-request phase attribution for
	// sampled proposals and reads (internal/rtrace): queue, fsync,
	// network, and apply intervals observed from the main loop. Unsampled
	// requests (trace ID 0) cost a nil/zero check per hook.
	Tracer *rtrace.Tracer
	// Flight, if non-nil, is this node's always-on flight recorder:
	// role transitions, commit advances, proposal batches, read rounds,
	// and snapshot traffic are recorded into its bounded ring, and
	// elections trigger a dump (rtrace.Flight).
	Flight *rtrace.Flight
}

// The main loop's caps. Every deployment and ledger workload runs these
// values; tests reach the edges they guard through them.
const (
	// maxEntriesPerAppend caps the log entries one AppendEntries carries:
	// a lagging follower is caught up in pipelined windows of this size.
	maxEntriesPerAppend = 64
	// maxInflightAppends caps the unacknowledged entry-carrying
	// AppendEntries outstanding per follower — the pipeline window. Once
	// full, new entries wait for acks or the heartbeat's stall rewind.
	maxInflightAppends = 4
	// maxProposalBatch caps the queued Propose calls one pass coalesces
	// into a single log append, persist batch and broadcast.
	maxProposalBatch = 64
	// maxReadBatch caps the queued ReadIndex calls one pass coalesces into
	// a single leadership-confirmation round.
	maxReadBatch = 256
	// applyQueueDepth bounds the apply queue (an item is one committed
	// batch or snapshot restore). A full queue blocks the main loop:
	// backpressure, not loss.
	applyQueueDepth = 256
)

func (c *Config) normalize() error {
	if c.Endpoint == nil {
		return errors.New("raft: Config.Endpoint is required")
	}
	if c.RNG == nil {
		return errors.New("raft: Config.RNG is required")
	}
	if c.ID < 0 || c.ID >= c.Endpoint.N() {
		return fmt.Errorf("raft: id %d out of range [0,%d)", c.ID, c.Endpoint.N())
	}
	if c.Clock == nil {
		c.Clock = sim.RealClock{}
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 150 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.ElectionTimeout / 5
	}
	if max := c.ElectionTimeout * 9 / 10; c.LeaseDuration > max {
		c.LeaseDuration = max // clock-skew discount; see Config.LeaseDuration
	}
	return nil
}

// Node is one Raft processor. Create with NewNode, run with Start, then
// interact via Propose, Campaign, Status, and Subscribe. All protocol
// state is confined to the run goroutine.
type Node struct {
	cfg Config
	n   int
	met *nodeMetrics

	el       election
	rep      replication
	campaign any // value to propose upon winning a manual campaign

	fatal error // set on persistence failure; stops the loop

	// Staged side effects of the current main-loop iteration (the
	// group-commit seam): handlers record durable mutations and outbound
	// messages here, and flush() hands the mutations to the persist
	// worker as one batch (one Storage.AppendBatch, hence one fsync,
	// however many messages and proposals the iteration coalesced)
	// together with the sends whose claim that batch covers and the
	// proposal replies that externalize it; everything else leaves at once.
	stateDirty bool
	rewrote    bool // the staged log rewrites an in-flight batch's (clampDurable)
	pendingLog []LogMutation
	outbox     []outMsg
	replies    []stagedReply
	folds      []foldSlot // fold's per-peer scratch (pipeline.go)

	// Write pipeline (see pipeline.go). The apply worker always runs; the
	// persist worker and its queue exist only with a Storage — without
	// one nothing is staged, so nothing is ever fenced. rep.durable is the
	// highest log index this node's own disk holds — the leader's self-ack
	// and the bound on what a message may claim before it is fenced —
	// raised as persist batches complete (FIFO in pendingPersist, targets
	// clamped the moment a truncation or a snapshot install is staged).
	applyQ   chan applyItem
	persistQ chan persistReq

	pendingPersist []pendingBatch
	pendingSnap    *snapStage
	snapAfterMuts  int

	// Read waiters (see read.go): reads waits on the core's confirmation
	// rounds, FIFO and tagged by round; relay tracks reads this follower
	// forwarded to the leader, by ids counted from the boot's clock
	// reading (NewNode): past every id an earlier life used, whose late
	// replies must not answer this life's reads.
	reads    []roundWaiter
	relaySeq int64
	relay    map[int64]chan proposeReply

	// Per-request tracing bookkeeping (leader only, sampled proposals
	// only): traced maps a log index to its in-flight trace, and
	// tracedUnsynced lists the indexes appended this iteration, whose
	// fsync phase the persist batch staged by flush() will close. Both
	// stay empty with tracing off, so the hot path pays a len check.
	traced         map[int]*tracedOp
	tracedUnsynced []int

	box     mailbox // the way in for callers and workers (mailbox.go)
	in      inputs  // what the loop took from box for the pass in progress
	stopped chan struct{}
	// stopErr is what callers of a stopped node get: ErrStopped, wrapped
	// with the fatal error when one stopped the loop. Written once, before
	// stopped closes.
	stopErr  error
	stopOnce sync.Once
	done     chan struct{}
	workers  sync.WaitGroup

	subMu  sync.Mutex
	subs   []*Subscription
	wanted atomic.Uint32 // union of subs' kinds; emit's lock-free early exit

	// applied publishes lastApplied and currentTerm to out-of-loop
	// waiters (AwaitApplied, Client.SubmitWait); see applied.go.
	applied *appliedNotifier
}

// claim is what a staged message asserts about this node's disk. The
// message waits for exactly that (flush): index is the highest log index
// it says the disk holds (0 = none), state is set when it speaks for the
// persisted term and vote.
type claim struct {
	index int
	state bool
}

type outMsg struct {
	to      int
	payload any
	claim   claim
}

// stagedReply is an answer the pass owes a caller: a read's, sent on ch,
// or a proposal's, which resolves its ticket t.
type stagedReply struct {
	ch    chan proposeReply
	t     *ticket
	reply proposeReply
	// fenced marks a reply that externalizes durable state (a proposal
	// acceptance: "your entry is in the leader's log") and must wait for
	// the persist queue to drain. Redirects and read answers claim
	// nothing the disk has to back, so they leave immediately.
	fenced bool
}

type proposeReq struct {
	cmd   any
	t     *ticket
	trace rtrace.ID // 0 unless this proposal is sampled
	enq   time.Time // queue-phase start; zero unless sampled
}

// tracedOp is the leader-side bookkeeping for one sampled proposal:
// which trace produced the log entry at this index and when it was
// appended (the network phase's start).
type tracedOp struct {
	id       rtrace.ID
	appended time.Time
}

type proposeReply struct {
	index int
	term  int // the accepting leader's term; set on proposal acceptance only
	err   error
	lease bool // a read's index came from a held lease; set on read answers only
}

// NewNode validates cfg and builds a node; call Start to run it. When
// cfg.Storage is set, the persisted term, vote, and log are restored
// here — the crash-recovery path.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// relaySeq starts past the last life's ids if the clock moved on since
	// that boot by more ns than the life forwarded reads. A real clock
	// does (no life forwards a read a ns); a fake one must be advanced
	// across a restart, as stepSim's crash-restart does by 1 ms. Not
	// cfg.RNG: raftkv seeds it with a fixed value, so lives would share ids.
	nd := &Node{
		cfg:      cfg,
		n:        cfg.Endpoint.N(),
		met:      newNodeMetrics(cfg.Metrics, cfg.ID),
		relay:    make(map[int64]chan proposeReply),
		relaySeq: cfg.Clock.Now().UnixNano(),
		folds:    make([]foldSlot, cfg.Endpoint.N()),
		box:      mailbox{wake: make(chan struct{}, 1)},
		applyQ:   make(chan applyItem, applyQueueDepth),
		stopped:  make(chan struct{}),
		stopErr:  ErrStopped,
		done:     make(chan struct{}),
	}
	nd.el = newElection(&nd.cfg, nd.n, &nd.rep.log)
	nd.rep = newReplication(&nd.cfg, nd.n, &nd.el)
	if cfg.Storage != nil {
		nd.persistQ = make(chan persistReq, persistQueueCap)
		st, err := cfg.Storage.Load()
		if err != nil {
			return nil, fmt.Errorf("raft: restore: %w", err)
		}
		nd.el.term, nd.el.votedFor = st.Term, st.VotedFor
		nd.rep.restore(st)
		if st.SnapIndex > 0 && st.SnapData != nil {
			snap, ok := cfg.StateMachine.(Snapshotter)
			if !ok {
				return nil, errors.New("raft: restore: persisted snapshot but state machine is not a Snapshotter")
			}
			if err := snap.RestoreSnapshot(st.SnapIndex, st.SnapData); err != nil {
				return nil, fmt.Errorf("raft: restore snapshot: %w", err)
			}
		}
	}
	nd.applied = newAppliedNotifier(nd.rep.commit, nd.el.term) // the restored snapshot and term, if any
	return nd, nil
}

// persistLog stages a log mutation (Storage.TruncateAndAppend semantics)
// for the iteration's flush. Everything above PrevIndex is being
// rewritten, so it stops counting as durable now — before the flush
// reads the durable index for the claims staged with it.
func (nd *Node) persistLog(mut LogMutation) {
	if nd.persistQ == nil {
		return // no disk to wait for: the core counts the tail durable
	}
	nd.clampDurable(mut.PrevIndex)
	nd.pendingLog = append(nd.pendingLog, mut)
}

// Start launches the node's goroutines. The node runs until ctx is
// cancelled or its endpoint dies (crash injection / network close).
func (nd *Node) Start(ctx context.Context) {
	nd.workers.Add(1)
	go nd.applyWorker()
	if nd.persistQ != nil {
		nd.workers.Add(1)
		go nd.persistWorker()
	}
	go nd.run(ctx)
	// Done() must not fire while a worker could still be mid-write: a
	// persist worker's fsync outlives the main loop by up to one run,
	// and callers close the Storage as soon as Done fires.
	go func() {
		<-nd.stopped
		nd.workers.Wait()
		close(nd.done)
	}()
}

// maxMessageDrain bounds how many delivered messages one main-loop
// pass handles before flushing; keeps a flooded node responsive to
// timers and Status requests.
const maxMessageDrain = 64

// drainMessages handles the already-delivered messages, up to
// maxMessageDrain, in one pass, so their log mutations share one storage
// flush and their acks leave in one batch; n == maxMessageDrain means the
// cap may have cut the burst short. The context is checked first: a
// cancelled node must not take a successor's messages off a shared
// endpoint (crash-recovery boots a fresh node on the old id).
func (nd *Node) drainMessages(ctx context.Context) (n int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for ; n < maxMessageDrain; n++ {
		m, ok, err := nd.cfg.Endpoint.TryRecv()
		if !ok {
			return n, err
		}
		nd.handleMessage(m)
	}
	return n, nil
}

// run is the main loop; all protocol state is touched here. Whichever arm
// of its select wakes it, it makes one pass over all that waits (step).
func (nd *Node) run(ctx context.Context) {
	defer nd.shutdown()

	clock := nd.cfg.Clock
	now := clock.Now()
	nd.el.push(now)
	electionTimer := clock.NewTimer(nd.el.deadline.Sub(now))
	heartbeat := clock.NewTimer(nd.cfg.HeartbeatInterval)
	defer electionTimer.Stop()
	defer heartbeat.Stop()

	// backlog stands in for Ready and the doorbell while input may be
	// pending with no token to announce it: after a pass that a cap cut
	// short, and on the first pass (a predecessor on this endpoint may
	// have taken the token). It leaves the timers their turn in the select.
	ready := nd.cfg.Endpoint.Ready()
	backlog := make(chan struct{})
	close(backlog)
	var inbox <-chan struct{} = backlog

	for {
		select {
		case <-ctx.Done():
			return

		case <-inbox:
		case <-nd.box.wake:

		case <-electionTimer.C():
			now := clock.Now()
			nd.applyElection(nd.el.tick(now))
			electionTimer.Reset(nd.el.deadline.Sub(now))

		case <-heartbeat.C():
			if nd.el.role == Leader {
				nd.met.heartbeats.Inc(nd.cfg.ID)
				nd.applyReplication(nd.rep.heartbeat(clock.Now()))
			}
			heartbeat.Reset(nd.cfg.HeartbeatInterval)
		}
		select {
		case <-ready: // spent here: the pass below looks at the endpoint anyway
		default:
		}
		more, err := nd.step(ctx)
		if err != nil {
			return // endpoint crashed, network closed, or ctx ended
		}
		if nd.fatal != nil {
			return // shutdown puts the cause in stopErr
		}
		inbox = ready
		if more {
			inbox = backlog
		}
	}
}

// step is one pass of the main loop, in a fixed order: persist
// completions first (they raise the durable index, which decides what the
// rest of the pass must fence), the rare inputs, requests and messages up
// to their caps, and one flush for all of it. more reports that a cap left input behind.
func (nd *Node) step(ctx context.Context) (more bool, err error) {
	in := &nd.in
	more = nd.box.take(in)
	for _, d := range in.persisted {
		nd.onPersistDone(d)
	}
	if in.err != nil {
		nd.fatal = in.err
	}
	if in.compact != nil {
		nd.applyReplication(nd.rep.compact(in.compact.index, in.compact.data))
	}
	if in.campaign != nil {
		nd.campaign = *in.campaign
		nd.applyElection(nd.el.campaign(nd.cfg.Clock.Now()))
	}
	for _, ch := range in.status {
		ch <- nd.statusLocked()
	}
	if len(in.proposals) > 0 {
		nd.handleProposeBatch(in.proposals)
	}
	nd.handleReadBatch(in.reads)
	msgs, err := nd.drainMessages(ctx)
	nd.flush()
	nd.met.onLoopPass([...]int{len(in.proposals), len(in.reads), msgs, len(in.persisted), len(in.status)})
	return more || msgs == maxMessageDrain, err
}

func (nd *Node) shutdown() {
	nd.stopOnce.Do(func() {
		if nd.fatal != nil {
			nd.stopErr = fmt.Errorf("%w: %v", ErrStopped, nd.fatal)
		}
		nd.applied.stop(nd.stopErr)
		close(nd.stopped)
	})
	nd.subMu.Lock()
	defer nd.subMu.Unlock()
	for _, s := range nd.subs {
		s.q.close()
	}
}

// Campaign asks the node to start an election now and, upon winning, to
// propose value (nil = nothing). It is how the VAC reconciliator restarts
// the protocol. Non-blocking: a pending campaign request is replaced.
func (nd *Node) Campaign(value any) {
	nd.box.mu.Lock()
	nd.box.campaign = &value
	nd.box.ring()
}

// Propose appends a command to the replicated log. Only the leader
// accepts; others return ErrNotLeader with a redirect hint. Success means
// the entry is in the leader's log, not yet that it is committed — watch
// EventCommitted or the state machine for that.
func (nd *Node) Propose(ctx context.Context, cmd any) (index int, err error) {
	rep, _ := nd.propose(ctx, cmd, true)
	return rep.index, rep.err
}

// propose queues cmd and parks its caller once, on the applied
// broadcast: until the accept reply when accept is set (Propose,
// Submit), and otherwise until a refusal, or until the accepted entry is
// applied or its term moves (SubmitWait). It returns the reply, whose
// term the client's fallback needs, and the last applied index seen.
func (nd *Node) propose(ctx context.Context, cmd any, accept bool) (proposeReply, int) {
	if _, err := commandTag(cmd); err != nil {
		return proposeReply{err: err}, 0
	}
	if err := nd.admit(ctx); err != nil {
		return proposeReply{err: err}, 0
	}
	req := proposeReq{cmd: cmd, t: &ticket{accept: accept}}
	if id := rtrace.FromContext(ctx); id != 0 {
		req.trace = id
		req.enq = nd.cfg.Tracer.Now(id)
	}
	nd.box.mu.Lock()
	nd.box.proposals = append(nd.box.proposals, req)
	nd.box.ring()
	rep, applied, err := nd.applied.wait(ctx, req.t)
	if err != nil {
		rep.err = err
	}
	return rep, applied
}

// admit turns away a caller that has already given up (its request must
// not run after it was told so) and any caller of a stopped node.
func (nd *Node) admit(ctx context.Context) error {
	select {
	case <-nd.stopped:
		return nd.stopErr
	default:
		return ctx.Err()
	}
}

// StateMachine returns the node's configured state machine (nil if
// none). It is fixed at construction, so the accessor is safe from any
// goroutine; the Client uses it to serve reads from the local store
// after a ReadIndex round proves the applied state is fresh enough.
func (nd *Node) StateMachine() StateMachine { return nd.cfg.StateMachine }

// Done is closed when the node has fully stopped: the main loop has
// exited AND the persist/apply workers have drained, so the Storage has
// no in-flight writes and may be closed. Restart orchestration
// (crash-recovery with a shared endpoint or storage) must wait for it
// before booting a replacement node.
func (nd *Node) Done() <-chan struct{} { return nd.done }

// Status snapshots the node's state.
func (nd *Node) Status() Status {
	ch := make(chan Status, 1)
	if nd.admit(context.Background()) == nil {
		nd.box.mu.Lock()
		nd.box.status = append(nd.box.status, ch)
		nd.box.ring()
	}
	select {
	case st := <-ch:
		return st
	case <-nd.stopped:
		return Status{ID: nd.cfg.ID, LeaderID: none}
	}
}

func (nd *Node) statusLocked() Status {
	return Status{
		ID:            nd.cfg.ID,
		Term:          nd.el.term,
		State:         nd.el.role,
		LeaderID:      nd.el.leader,
		CommitIndex:   nd.rep.commit,
		LastApplied:   nd.applied.current(),
		LogLength:     nd.rep.log.lastIndex(),
		LastLogTerm:   nd.rep.log.lastTerm(),
		SnapshotIndex: nd.rep.log.snapIndex,
	}
}

// Subscription delivers the node's events of the kinds it asked for, in
// emission order, without loss.
type Subscription struct {
	q     *eventQueue
	kinds uint32 // bit k set: deliver EventKind k
}

// Next returns the next event, blocking until one arrives, the context is
// cancelled, or the node stops.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	return s.q.pop(ctx)
}

// Subscribe registers a new event stream carrying only the given kinds;
// with none it carries every event (what the VAC view and Decree
// need). Events emitted before the subscription are not replayed. A
// kind nobody subscribed to is never queued.
func (nd *Node) Subscribe(kinds ...EventKind) *Subscription {
	s := &Subscription{q: newEventQueue()}
	for _, k := range kinds {
		s.kinds |= 1 << k
	}
	if len(kinds) == 0 {
		s.kinds = ^uint32(0)
	}
	nd.subMu.Lock()
	defer nd.subMu.Unlock()
	nd.subs = append(nd.subs, s)
	nd.wanted.Store(nd.wanted.Load() | s.kinds)
	return s
}

// emit is called from the main loop and the apply worker; wanted is the
// union of every subscription's kinds, read without the lock.
func (nd *Node) emit(e Event) {
	bit := uint32(1) << e.Kind
	if nd.wanted.Load()&bit == 0 {
		return
	}
	nd.subMu.Lock()
	defer nd.subMu.Unlock()
	for _, s := range nd.subs {
		if s.kinds&bit != 0 {
			s.q.push(e)
		}
	}
}

// ---- message handling (main loop only) ----

func (nd *Node) handleMessage(m msgnet.Message) {
	if id, inner := msgnet.TraceOf(m.Payload); id != 0 {
		// A sampled request's replication traffic: unwrap for the handlers
		// and leave a correlation event in the flight ring.
		m.Payload = inner
		nd.cfg.Flight.Record(rtrace.EvNote, rtrace.ID(id), int64(m.From), 0, "traced-recv")
	}
	if nd.el.heeds(m.Payload) {
		nd.applyElection(nd.el.receive(m.From, m.Payload, nd.cfg.Clock.Now()))
	}
	switch p := m.Payload.(type) {
	case AppendEntries:
		nd.applyReplication(nd.rep.onAppend(m.From, p))
	case InstallSnapshot:
		nd.applyReplication(nd.rep.install(m.From, p))
	case AppendEntriesReply:
		nd.applyReplication(nd.rep.onAppendReply(m.From, p))
	case ReadIndexRequest:
		nd.onReadIndexRequest(m.From, p)
	case ReadIndexReply:
		nd.onReadIndexReply(m.From, p)
	}
}

// send stages an outbound message that claims nothing about this node's
// disk, so flush() lets it leave at once: ReadIndex traffic (a read index
// is a commit index, durable on a quorum by definition). The cores set
// their own messages' claims.
func (nd *Node) send(to int, payload any) {
	nd.outbox = append(nd.outbox, outMsg{to: to, payload: payload})
}

// ---- role transitions (main loop only) ----

// applyElection carries out one election step: the one site where a
// term, vote or role change reaches the disk, the outbox, the reads and
// the telemetry.
func (nd *Node) applyElection(o elOut) {
	e := &nd.el
	if o.timeout {
		nd.emit(Event{Kind: EventTimeout, Node: nd.cfg.ID, Term: e.term})
	}
	if o.newTerm {
		nd.met.termChanges.Inc(nd.cfg.ID)
		nd.met.term.Set(int64(e.term))
		nd.applied.setTerm(e.term)
	}
	if o.newTerm || o.enter == Follower {
		// A reign or a candidacy ends, and what rode on it: pending reads,
		// commit-latency attribution, and in-flight traced proposals,
		// whose clients see the error and close the spans.
		nd.traced = nil
		nd.tracedUnsynced = nd.tracedUnsynced[:0]
		nd.met.dropPending()
		nd.failReads()
	}
	if o.persist && nd.persistQ != nil {
		nd.stateDirty = true // term and vote ride the pass's flush
	}
	for to := 0; o.vote.payload != nil && to < nd.n; to++ {
		if to != nd.cfg.ID && (o.vote.to == none || o.vote.to == to) {
			nd.outbox = append(nd.outbox, outMsg{to: to, payload: o.vote.payload, claim: o.vote.claim})
		}
	}
	switch o.enter {
	case Follower:
		nd.cfg.Flight.Record(rtrace.EvStepDown, 0, int64(e.term), int64(nd.rep.commit), "")
		nd.emit(Event{Kind: EventBecameFollower, Node: nd.cfg.ID, Term: e.term})
	case Candidate, Leader:
		if o.newTerm {
			nd.met.elections.Inc(nd.cfg.ID)
			// An election is an anomaly from the workload's point of view:
			// dump the flight ring so the run-up (lost heartbeats, drops,
			// backlog) is preserved before new-term traffic overwrites it.
			nd.cfg.Flight.Trigger(rtrace.EvElection, 0, int64(e.term), int64(nd.rep.commit), "")
			nd.emit(Event{Kind: EventBecameCandidate, Node: nd.cfg.ID, Term: e.term})
		}
		if o.enter == Leader {
			nd.becomeLeader()
		}
	}
}

func (nd *Node) becomeLeader() {
	nd.met.electionsWon.Inc(nd.cfg.ID)
	nd.cfg.Flight.Record(rtrace.EvBecameLeader, 0, int64(nd.el.term), int64(nd.rep.log.lastIndex()), "")
	nd.rep.win()
	nd.emit(Event{Kind: EventBecameLeader, Node: nd.cfg.ID, Term: nd.el.term})

	// The term-opening no-op (§5.4.2): without it, entries inherited from
	// earlier terms could never commit until a client happened to write.
	// Batched with any manual-campaign value: one persisted mutation.
	cmds := []any{Noop{}}
	if nd.campaign != nil {
		cmds = append(cmds, nd.campaign)
		nd.campaign = nil
	}
	nd.applyReplication(nd.rep.propose(cmds))
}

// handleProposeBatch coalesces a drained batch of proposals into one log
// append, one staged persistence mutation, and one broadcast — the
// leader's group-commit hot path. Replies are staged so they reach the
// proposers only after the batch is durable.
func (nd *Node) handleProposeBatch(reqs []proposeReq) {
	if nd.el.role != Leader {
		rep := proposeReply{err: ErrNotLeader{LeaderID: nd.el.leader}}
		for _, r := range reqs {
			nd.replies = append(nd.replies, stagedReply{t: r.t, reply: rep})
		}
		return
	}
	nd.met.proposeBatch.Observe(nd.cfg.ID, time.Duration(len(reqs)))
	cmds := make([]any, len(reqs))
	for i, r := range reqs {
		cmds[i] = r.cmd
	}
	first := nd.rep.log.lastIndex() + 1
	var drained time.Time // one clock read even if several proposals are sampled
	for i, r := range reqs {
		nd.replies = append(nd.replies, stagedReply{t: r.t, reply: proposeReply{index: first + i, term: nd.el.term}, fenced: true})
		if r.trace != 0 {
			if drained.IsZero() {
				drained = time.Now()
			}
			nd.cfg.Tracer.ObservePhase(r.trace, rtrace.PhaseQueue, nd.cfg.ID, r.enq, drained)
			if nd.traced == nil {
				nd.traced = make(map[int]*tracedOp)
			}
			nd.traced[first+i] = &tracedOp{id: r.trace, appended: drained}
			nd.tracedUnsynced = append(nd.tracedUnsynced, first+i)
		}
	}
	nd.applyReplication(nd.rep.propose(cmds))
	nd.cfg.Flight.Record(rtrace.EvProposeBatch, 0, int64(len(reqs)), int64(nd.rep.log.lastIndex()), "")
}

// applyReplication carries out one replication step: the one site where
// the log, the commit index, the snapshot, the leader's windows and its
// read rounds reach the disk, the outbox, the apply worker, the read
// waiters and the telemetry.
func (nd *Node) applyReplication(o *repOut) {
	if o.persist {
		nd.persistLog(o.mut)
	}
	leader := nd.el.role == Leader
	for i := o.adopted.after + 1; i <= o.adopted.through; i++ {
		e, _ := nd.rep.log.entryAt(i)
		if leader {
			nd.met.onAppendLocal(i)
		}
		nd.emit(Event{Kind: EventAppended, Node: nd.cfg.ID, Term: nd.el.term, Index: i, Command: e.Command})
	}
	for i, m := range o.msgs {
		switch p := m.payload.(type) {
		case AppendEntries:
			if len(p.Entries) == 0 {
				break
			}
			// The window's depth after this send: later sends in this step
			// to the same peer are still to come.
			depth := len(nd.rep.peers[m.to].inflight)
			for _, later := range o.msgs[i+1:] {
				if ae, ok := later.payload.(AppendEntries); ok && later.to == m.to && len(ae.Entries) > 0 {
					depth--
				}
			}
			nd.met.appendEntries.Observe(nd.cfg.ID, time.Duration(len(p.Entries)))
			nd.met.inflightDepth.Observe(nd.cfg.ID, time.Duration(depth))
			m.payload = nd.traceAppend(m.payload, p)
		case InstallSnapshot:
			nd.cfg.Flight.Record(rtrace.EvSnapshot, 0, int64(p.LastIncludedIndex), int64(m.to), "send")
		}
		nd.outbox = append(nd.outbox, m)
	}
	if c := o.committed; c.through > c.after {
		nd.met.onCommit(c.after, c.through)
		nd.cfg.Flight.Record(rtrace.EvCommit, 0, int64(c.through), int64(nd.el.term), "")
		for i := c.after + 1; i <= c.through; i++ {
			e, _ := nd.rep.log.entryAt(i)
			nd.emit(Event{Kind: EventCommitted, Node: nd.cfg.ID, Term: nd.el.term, Index: i, Command: e.Command})
		}
		if leader {
			// Overlap attribution: did the quorum outrun the local disk?
			if nd.rep.durable < c.through {
				nd.met.commitOverlap.Inc(nd.cfg.ID)
			} else {
				nd.met.commitInOrder.Inc(nd.cfg.ID)
			}
		}
		nd.enqueueApplyEntries(c.after, c.through)
	}
	if o.snap != nil {
		nd.persistSnapshot(o.snap, o.restore)
		if o.restore {
			nd.cfg.Flight.Record(rtrace.EvSnapshot, 0, int64(o.snap.index), int64(nd.el.leader), "install")
			nd.enqueueApply(applyItem{term: nd.el.term, restore: o.snap})
		} else {
			nd.met.snapshots.Inc(nd.cfg.ID)
		}
	}
	if o.leased {
		nd.met.leaseHolds.Inc(nd.cfg.ID)
	}
	if o.confirmed > 0 {
		nd.confirmReads(o.confirmed)
	}
}

// traceAppend wraps payload, the append m, in the trace ID of its newest
// sampled entry so peers' flight recorders can correlate (one ID per
// frame is enough), and returns it as it is, boxed once, otherwise.
func (nd *Node) traceAppend(payload any, m AppendEntries) any {
	for i := len(m.Entries) - 1; i >= 0 && len(nd.traced) > 0; i-- {
		if op, ok := nd.traced[m.PrevLogIndex+1+i]; ok {
			return msgnet.WithTraceID(uint64(op.id), payload)
		}
	}
	return payload
}
