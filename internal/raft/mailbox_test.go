package raft

// Tests for the main loop's intake (mailbox.go, Node.step): the doorbell
// never loses a wake-up, one wake is one pass and one flush whatever was
// waiting, the coalescing caps still mean what Config says, callers
// queued in the box are released when the node stops, a full persist
// queue is backpressure and not a deadlock, and the two contracts the
// channels never kept (Campaign replaces, a cancelled caller enqueues
// nothing).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// soloLeader returns an unstarted, hand-driven node that leads a group of
// n in term 1, with its campaign traffic and first persist batch (if it
// has a Storage) already flushed and landed.
func soloLeader(t *testing.T, nw *netsim.Network, opts ...func(*Config)) *Node {
	t.Helper()
	cfg := Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win(nd)
	nd.flush()
	if nd.persistQ != nil {
		nd.onPersistDone(nd.doPersistRun([]persistReq{<-nd.persistQ}))
		nd.flush()
	}
	return nd
}

// win elects an unstarted node through the election core: it campaigns,
// and its peers grant their votes until it leads.
func win(nd *Node) {
	now := nd.cfg.Clock.Now()
	nd.applyElection(nd.el.campaign(now))
	for p := 0; nd.el.role != Leader; p++ {
		if p != nd.cfg.ID {
			nd.applyElection(nd.el.receive(p, RequestVoteReply{Term: nd.el.term, VoteGranted: true}, now))
		}
	}
}

// queued counts what take would find in the box.
func (b *mailbox) queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.proposals) + len(b.reads) + len(b.status) + len(b.persisted)
}

func received(nw *netsim.Network, id int) (msgs []any) {
	for {
		m, ok, _ := nw.Node(id).TryRecv()
		if !ok {
			return msgs
		}
		msgs = append(msgs, m.Payload)
	}
}

// (1) Eight producers push mixed kinds as fast as they can at a consumer
// that parks on the doorbell alone. Every item must come out, FIFO per
// producer, and the consumer must never be left parked over a non-empty
// box (the watchdog arm).
func TestMailboxNoLostWakeup(t *testing.T) {
	const producers = 8
	perProducer := 100_000
	if testing.Short() {
		perProducer = 10_000
	}
	b := mailbox{wake: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.mu.Lock()
				switch i % 4 {
				case 0:
					b.proposals = append(b.proposals, proposeReq{cmd: [2]int{p, i}})
				case 1:
					b.reads = append(b.reads, readReq{mode: ReadConsistency(p), trace: rtrace.ID(i + 1)})
				case 2:
					b.persisted = append(b.persisted, persistDone{n: i})
				default:
					b.status = append(b.status, nil)
				}
				b.ring()
			}
		}(p)
	}
	var in inputs
	taken, last := 0, [producers][2]int{}
	for p := range last {
		last[p] = [2]int{-1, -1}
	}
	for want := producers * perProducer; taken < want; {
		select {
		case <-b.wake:
		case <-time.After(20 * time.Second):
			t.Fatalf("consumer parked with %d items in the box (%d of %d taken): a wake-up was lost", b.queued(), taken, want)
		}
		for more := true; more; {
			more = b.take(&in)
			if len(in.proposals) > 64 || len(in.reads) > 256 {
				t.Fatalf("take exceeded its caps: %d proposals, %d reads", len(in.proposals), len(in.reads))
			}
			for _, r := range in.proposals {
				pi := r.cmd.([2]int)
				if pi[1] <= last[pi[0]][0] {
					t.Fatalf("producer %d: proposal %d after %d", pi[0], pi[1], last[pi[0]][0])
				}
				last[pi[0]][0] = pi[1]
			}
			for _, r := range in.reads {
				p, i := int(r.mode), int(r.trace)-1
				if i <= last[p][1] {
					t.Fatalf("producer %d: read %d after %d", p, i, last[p][1])
				}
				last[p][1] = i
			}
			taken += len(in.proposals) + len(in.reads) + len(in.persisted) + len(in.status)
		}
	}
	wg.Wait()
	if n := b.queued(); n != 0 {
		t.Fatalf("%d items left after every push was taken", n)
	}
}

// (2) A proposal, a persist completion and two inbound messages are all
// waiting when the loop wakes: one pass handles the four of them and ends
// in one flush — one hand-off to the persist worker, one burst of sends.
func TestOneFlushPerWake(t *testing.T) {
	nw := netsim.New(3, netsim.WithFIFO())
	nd := soloLeader(t, nw, func(cfg *Config) { cfg.Storage = NewMemStorage() })
	received(nw, 1)
	received(nw, 2)
	if nd.rep.durable != 1 || nd.rep.commit != 0 || len(nd.persistQ) != 0 {
		t.Fatalf("setup: durable %d commit %d queued %d", nd.rep.durable, nd.rep.commit, len(nd.persistQ))
	}

	// A barrier-only batch in flight, whose completion is in the box.
	nd.stagePersistBatch(nil, nil)
	done := nd.doPersistRun([]persistReq{<-nd.persistQ})
	tk := &ticket{accept: true}
	nd.box.mu.Lock()
	nd.box.persisted = append(nd.box.persisted, done)
	nd.box.proposals = append(nd.box.proposals, proposeReq{cmd: "x", t: tk})
	nd.box.ring()
	for _, peer := range []int{1, 2} {
		if err := nw.Node(peer).Send(0, AppendEntriesReply{Term: 1, Success: true, MatchIndex: 1}); err != nil {
			t.Fatal(err)
		}
	}

	more, err := nd.step(context.Background())
	if more || err != nil {
		t.Fatalf("step = %v, %v", more, err)
	}
	if len(nd.pendingPersist) != 1 || nd.rep.log.lastIndex() != 2 || nd.rep.commit != 1 {
		t.Fatalf("one pass left: %d batches in flight (want the proposal's only), log %d (want 2), commit %d (want 1)",
			len(nd.pendingPersist), nd.rep.log.lastIndex(), nd.rep.commit)
	}
	if len(nd.persistQ) != 1 {
		t.Fatalf("%d hand-offs to the persist worker, want 1", len(nd.persistQ))
	}
	req := <-nd.persistQ
	if len(req.muts) != 1 || len(req.muts[0].Entries) != 1 || len(req.replies) != 1 {
		t.Fatalf("the hand-off carries %d mutations and %d fenced replies, want the proposal's entry and its reply", len(req.muts), len(req.replies))
	}
	if tk.resolved {
		t.Fatalf("accept reply %+v left before its barrier", tk.rep)
	}
	for _, peer := range []int{1, 2} {
		got := received(nw, peer)
		ae, ok := got[0].(AppendEntries)
		if len(got) != 1 || !ok || len(ae.Entries) != 1 {
			t.Fatalf("peer %d received %v, want one AppendEntries with the new entry", peer, got)
		}
	}
	if more, _ := nd.step(context.Background()); more || len(nd.persistQ) != 0 {
		t.Fatal("a pass with nothing waiting staged something")
	}
}

// (3) 200 proposers are queued behind maxProposalBatch (64): no pass
// hands handleProposeBatch more than 64, and a Status request that
// arrived meanwhile is answered after the first pass, not after the last.
func TestCapsSurviveTheMailbox(t *testing.T) {
	const proposers, limit = 200, maxProposalBatch
	nd := soloLeader(t, netsim.New(1))
	tickets := make([]*ticket, proposers)
	nd.box.mu.Lock()
	for i := range tickets {
		tickets[i] = &ticket{accept: true}
		nd.box.proposals = append(nd.box.proposals, proposeReq{cmd: i, t: tickets[i]})
	}
	status := make(chan Status, 1)
	nd.box.status = append(nd.box.status, status)
	nd.box.ring()

	base := nd.rep.log.lastIndex()
	for pass, left := 1, proposers; left > 0; pass++ {
		more, err := nd.step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		took := len(nd.in.proposals)
		left -= took
		if took > limit || took != min(limit, left+took) || more != (left > 0) {
			t.Fatalf("pass %d took %d proposals (more=%v) with %d still queued", pass, took, more, left)
		}
		if pass == 1 {
			select {
			case st := <-status:
				if st.LogLength != base {
					t.Fatalf("Status saw log length %d, want %d: it is answered before the pass's proposals", st.LogLength, base)
				}
			default:
				t.Fatalf("Status not answered by the first pass (%d proposals still queued)", left)
			}
		}
	}
	for i, tk := range tickets {
		if rep := tk.rep; !tk.resolved || rep.err != nil || rep.index != base+1+i {
			t.Fatalf("proposer %d: %+v (resolved %v), want index %d (FIFO across passes)", i, rep, tk.resolved, base+1+i)
		}
	}
}

// (4) Proposals, reads and Status requests sit in the box of a node that
// stops before it ever takes them, and so do a write parked on its
// accepted entry and a Propose behind a fatal error: every caller comes
// back with ErrStopped (or its own context's error), and no goroutine is
// left.
func TestStopWhileQueued(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(3).Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}})
	if err != nil {
		t.Fatal(err)
	}
	const each = 10
	gaveUp, giveUp := context.WithCancel(context.Background())
	errs := make(chan error, 4*each)
	for i := 0; i < each; i++ {
		go func() { _, err := nd.Propose(context.Background(), i); errs <- err }()
		go func() { _, err := nd.ReadIndex(context.Background()); errs <- err }()
		go func() { _, err := nd.Propose(gaveUp, -i); errs <- err }()
		go func() {
			if st := nd.Status(); st.LeaderID != none || st.Term != 0 {
				errs <- fmt.Errorf("Status on a stopped node = %+v", st)
				return
			}
			errs <- ErrStopped
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); nd.box.queued() < 4*each; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers reached the box", nd.box.queued(), 4*each)
		}
		time.Sleep(time.Millisecond)
	}
	giveUp()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nd.Start(ctx) // the loop's first select may still make one pass: a follower's refusals
	<-nd.Done()
	stopped, cancelled := 0, 0
	for i := 0; i < 4*each; i++ {
		var nl ErrNotLeader
		switch err := <-errs; {
		case errors.Is(err, ErrStopped):
			stopped++
		case errors.Is(err, context.Canceled):
			cancelled++
		case errors.As(err, &nl):
		default:
			t.Fatalf("caller returned %v", err)
		}
	}
	if cancelled > each {
		t.Fatalf("%d callers saw context.Canceled, only %d had a context to cancel", cancelled, each)
	}
	if _, err := nd.Propose(context.Background(), "late"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Propose on a stopped node = %v", err)
	}
	if n := len(nd.box.proposals); n > 2*each {
		t.Fatalf("a stopped node accepted a request into its box (%d queued)", n)
	}

	// A SubmitWait parked on an accepted, unapplied entry (the node-side
	// call it makes) and a Propose still in the box, on a hand-driven
	// leader of three whose followers never answer. The loop's exit
	// (shutdown, which run defers) releases both with ErrStopped, wrapping
	// the fatal cause when one stopped the node.
	queuedOne := func(nd *Node) {
		for deadline := time.Now().Add(10 * time.Second); nd.box.queued() != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("%d callers in the box, want 1", nd.box.queued())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, cause := range []error{nil, errors.New("raft test: apply failed")} {
		nd := soloLeader(t, netsim.New(3))
		parked := make(chan error, 2)
		go func() { rep, _ := nd.propose(context.Background(), "w", false); parked <- rep.err }()
		queuedOne(nd)
		if _, err := nd.step(context.Background()); err != nil {
			t.Fatal(err)
		}
		tk := nd.in.proposals[0].t
		nd.applied.mu.Lock()
		accepted := tk.resolved && tk.rep.err == nil && tk.rep.index > nd.applied.idx
		nd.applied.mu.Unlock()
		if !accepted {
			t.Fatalf("the write's ticket is %+v with %d applied, want accepted and unapplied", *tk, nd.applied.current())
		}
		if cause != nil {
			nd.applyFatal(cause)
			if _, err := nd.step(context.Background()); err != nil || nd.fatal == nil {
				t.Fatalf("the pass after the worker's report: %v, fatal %v", err, nd.fatal)
			}
		}
		go func() { _, err := nd.Propose(context.Background(), "p"); parked <- err }()
		queuedOne(nd)
		nd.shutdown()
		for i := 0; i < 2; i++ {
			select {
			case err := <-parked:
				if !errors.Is(err, ErrStopped) || cause != nil && !strings.Contains(err.Error(), cause.Error()) {
					t.Fatalf("stopped with cause %v, a parked caller returned %v", cause, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("stopped with cause %v, a parked caller never returned", cause)
			}
		}
		if n := nd.box.queued(); n != 1 {
			t.Fatalf("%d callers in the box after the stop, want the Propose", n)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the test (%d stopped, %d cancelled)", runtime.NumGoroutine(), baseline, stopped, cancelled)
		}
		time.Sleep(time.Millisecond)
	}
}

// (5) The disk is held shut until the persist queue is full and the loop
// is blocked handing it one batch more. Nothing deadlocks when the gate
// opens — the worker's completions cannot block on the loop — and no
// accept reply is seen before the barrier it was fenced behind.
func TestFullPersistQueueIsBackpressure(t *testing.T) {
	gate := newGatedStorage(NewMemStorage())
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(5),
		ElectionTimeout: testElection, StateMachine: &KVStore{}, Storage: gate})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nd.Start(ctx)
	defer func() { gate.release(); cancel(); <-nd.Done() }()
	for nd.Status().State != Leader {
		time.Sleep(time.Millisecond)
	}
	if _, err := nd.Propose(ctx, "first"); err != nil { // the disk works
		t.Fatal(err)
	}

	gate.block()
	const writers = persistQueueCap + 6 // one batch in the worker, a full queue, one blocking the loop, four in the box
	var opened atomic.Bool
	errs := make(chan error, writers)
	write := func(w int) {
		go func() {
			_, err := nd.Propose(ctx, w)
			if err == nil && !opened.Load() {
				err = errors.New("accept reply arrived while the disk was still shut")
			}
			errs <- err
		}()
	}
	waitFor := func(cond func() bool) {
		for !cond() {
			if ctx.Err() != nil {
				t.Fatalf("persist queue reached %d of %d, %d write(s) parked at the disk",
					len(nd.persistQ), persistQueueCap, gate.parked.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// The worker drains every batch queued when it wakes, so the writers
	// come one at a time: the first is the batch the worker holds at the
	// shut disk, and each later one adds one batch to the queue.
	write(0)
	waitFor(func() bool { return gate.parked.Load() == 1 })
	for w := 1; w <= persistQueueCap; w++ {
		write(w)
		waitFor(func() bool { return len(nd.persistQ) == w })
	}
	for w := persistQueueCap + 1; w < writers; w++ {
		write(w)
	}
	status := make(chan Status, 1)
	go func() { status <- nd.Status() }()
	select {
	case st := <-status:
		// Not yet blocked (the batch that will block it is still to come):
		// legal, and the rest of the test still runs against a full queue.
		t.Logf("loop still answering with the queue full: %+v", st)
		status = nil
	case <-time.After(50 * time.Millisecond):
	}
	opened.Store(true)
	gate.release()
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if status != nil {
		select {
		case <-status:
		case <-ctx.Done():
			t.Fatal("the loop never came back after the gate opened")
		}
	}
	if st := nd.Status(); st.LogLength != 2+writers || st.CommitIndex != st.LogLength {
		t.Fatalf("after the gate opened: %+v, want %d entries committed", st, 2+writers)
	}
}

// Campaign's contract: a pending request is replaced. Two calls land
// before the loop looks; the winner proposes the second value, and the
// first is never appended.
func TestCampaignReplacesPendingRequest(t *testing.T) {
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(2),
		ElectionTimeout: testElection, ManualCampaign: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := nd.Subscribe(EventCommitted)
	nd.Campaign("stale preference")
	nd.Campaign("current preference")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nd.Start(ctx)
	var committed []any
	for len(committed) < 2 {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("after %v: %v", committed, err)
		}
		committed = append(committed, ev.Command)
	}
	if committed[0] != (Noop{}) || committed[1] != "current preference" {
		t.Fatalf("the winner committed %v, want its no-op and the latest campaign value", committed)
	}
	if st := nd.Status(); st.LogLength != 2 {
		t.Fatalf("log length %d, want 2: %+v", st.LogLength, st)
	}
}

// A caller whose context is already done is told so and enqueues nothing:
// with the channels, a ready send arm could win the select and the
// command be replicated after the caller had gone.
func TestCancelledCallerEnqueuesNothing(t *testing.T) {
	c := newCluster(t, 1, 71)
	c.waitLeader()
	base := c.propose("before")
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if _, err := c.nodes[0].Propose(dead, i); !errors.Is(err, context.Canceled) {
			t.Fatalf("Propose with a cancelled context = %v", err)
		}
		if _, err := c.nodes[0].ReadIndexMode(dead, ReadLinearizable); !errors.Is(err, context.Canceled) {
			t.Fatalf("ReadIndex with a cancelled context = %v", err)
		}
	}
	if idx := c.propose("after"); idx != base+1 {
		t.Fatalf("the next proposal landed at %d, want %d: cancelled callers' commands were appended", idx, base+1)
	}
}

// A follower's notifier never has a waiter: publishing applies and term
// changes must then allocate nothing (it used to close and make a channel
// per apply batch on every replica).
func TestAppliedNotifierIdleAllocs(t *testing.T) {
	a := newAppliedNotifier(0, 1)
	i := 0
	if got := testing.AllocsPerRun(1000, func() { i++; a.advance(i); a.setTerm(i) }); got != 0 {
		t.Fatalf("advance+setTerm with nobody parked: %v allocs, want 0", got)
	}
}

// Waiters arrive between advance calls, from several goroutines, each
// parked on a SubmitWait ticket that the driver resolves either at the
// index it just applied — the accept that landed after the apply, which
// only the resolution can wake — or at the next one, which the next
// advance must wake. A wake-up skipped because the notifier thought
// nobody was parked, or because the resolution thought nobody could
// return, strands a waiter until the deadline.
func TestAppliedNotifierNeverStrandsAWaiter(t *testing.T) {
	const waiters, steps = 4, 5000
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	a := newAppliedNotifier(0, 1)
	queued := make(chan *ticket, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk := &ticket{}
				queued <- tk
				rep, idx, err := a.wait(ctx, tk)
				if err != nil || idx < rep.index {
					t.Errorf("wait = %+v at %d, %v", rep, idx, err)
					return
				}
				if rep.index >= steps {
					return
				}
			}
		}()
	}
	resolve := func(tk *ticket, index int) {
		a.resolve([]stagedReply{{t: tk, reply: proposeReply{index: index, term: 1}}})
	}
	for i, k := 1, 0; i <= steps; i++ {
		a.advance(i)
		for drained := false; !drained; {
			select {
			case tk := <-queued:
				k++
				resolve(tk, min(i+k%2, steps)) // applied already, or the next advance's
			default:
				drained = true
			}
		}
		if i%3 == 0 {
			runtime.Gosched() // let waiters park between advances, and not
		}
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for {
		select {
		case tk := <-queued:
			resolve(tk, steps) // applied already: only the resolution wakes it
		case <-finished:
			return
		}
	}
}

// The loop's own accounting against the network's: on a stopped 3-node
// group, messages taken in by the three loops equal messages the network
// handed out, and append replies counted as they left — free or released
// by a persist run — equal those the network carried; every proposal
// made was counted; wakes never exceed inputs plus timer ticks by
// construction, so inputs per wake is readable.
func TestLoopInputMetricsMatchNetwork(t *testing.T) {
	reg := metrics.NewRegistry()
	const n, writes = 3, 40
	var carried atomic.Int64 // AppendEntriesReply messages on the network
	count := func(m msgnet.Message) []msgnet.Message {
		if _, ok := m.Payload.(AppendEntriesReply); ok {
			carried.Add(1)
		}
		return []msgnet.Message{m}
	}
	nw := netsim.New(n, netsim.WithSeed(29), netsim.WithMetrics(reg), netsim.WithTamper(count))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodes := make([]*Node, n)
	rng := sim.NewRNG(29)
	for id := range nodes {
		var err error
		nodes[id], err = NewNode(Config{ID: id, Endpoint: nw.Node(id), RNG: rng.Fork(uint64(id)),
			ElectionTimeout: testElection, HeartbeatInterval: testHeartbeat, StateMachine: &KVStore{}, Metrics: reg,
			Storage: NewMemStorage()})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].Start(ctx)
	}
	client, err := NewClient(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if _, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "k", Value: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, nd := range nodes {
		<-nd.Done()
	}
	snap := reg.Snapshot()
	sum := func(name string, kv ...string) (total int64) {
		for id := 0; id < n; id++ {
			total += snap.Counters[metrics.Label(name, append([]string{"node", strconv.Itoa(id)}, kv...)...)]
		}
		return total
	}
	msgs, delivered := sum("raft_loop_inputs_total", "kind", "message"), snap.Counters["netsim_delivers_total"]
	if msgs != delivered || msgs == 0 {
		t.Fatalf("loops took in %d messages, the network handed out %d", msgs, delivered)
	}
	if got := sum("raft_loop_inputs_total", "kind", "proposal"); got < writes {
		t.Fatalf("%d proposals counted, %d writes acknowledged", got, writes)
	}
	if got := sum("raft_loop_inputs_total", "kind", "read"); got < 1 {
		t.Fatalf("%d reads counted, one was served", got)
	}
	if wakes := sum("raft_loop_wakes_total"); wakes == 0 {
		t.Fatal("no wakes counted")
	}
	fenced, free := sum("raft_append_replies_total", "fence", "persist"), sum("raft_append_replies_total", "fence", "none")
	if fenced+free != carried.Load() || fenced == 0 || free == 0 {
		t.Fatalf("append replies counted: %d released by a persist run and %d free, the network carried %d", fenced, free, carried.Load())
	}
}

// closedLoop splits ops calls among callers goroutines, each making its
// share one after the other, and returns when all are done.
func closedLoop(tb testing.TB, callers, ops int, call func() error) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		share := ops / callers
		if c < ops%callers {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < share; i++ {
				if err := call(); err != nil {
					tb.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNodeIntake is the intake layer's local signal: closed-loop
// SubmitWait callers against a 1-node netsim group — no network, no disk,
// so what is timed is the way into the loop, one pass, apply and the way
// back out.
func BenchmarkNodeIntake(b *testing.B) {
	for _, callers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			node, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(3),
				ElectionTimeout: testElection, StateMachine: &KVStore{}})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer func() { cancel(); <-node.Done() }()
			node.Start(ctx)
			client, err := NewClient([]*Node{node})
			if err != nil {
				b.Fatal(err)
			}
			var cmd any = KVCommand{Op: "set", Key: "k", Value: "v"}
			if _, err := client.SubmitWait(ctx, cmd); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			closedLoop(b, callers, b.N, func() error {
				_, err := client.SubmitWait(ctx, cmd)
				return err
			})
		})
	}
}

// BenchmarkReadIndexClosedLoop is the pass's local signal for reads, the
// micro row that moves with readmix-tcp: 8 closed-loop ReadIndex callers
// on the leader of a 3-node netsim group. ns/op is per read; reads/round
// is how many shared each confirmation round, which is what a change to
// the end of the pass moves (TestReleasedCallersShareTheNextPass bounds it).
func BenchmarkReadIndexClosedLoop(b *testing.B) {
	reg := metrics.NewRegistry()
	c := newCluster(b, 3, 97, func(cfg *Config) { cfg.Metrics = reg })
	leader := c.waitLeader()
	c.waitApplied(c.propose(KVCommand{Op: "set", Key: "k", Value: "v"}), leader)
	node := c.nodes[leader]
	rounds := func() int64 {
		return reg.Snapshot().Counters[metrics.Label("raft_read_rounds_total", "node", strconv.Itoa(leader))]
	}
	rounds0 := rounds()
	b.ReportAllocs()
	b.ResetTimer()
	closedLoop(b, 8, b.N, func() error {
		_, err := node.ReadIndex(c.ctx)
		return err
	})
	b.StopTimer()
	if n := rounds() - rounds0; n > 0 {
		b.ReportMetric(float64(b.N)/float64(n), "reads/round")
	}
}
