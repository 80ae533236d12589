package raft

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// The commit path's three hand-offs (DESIGN §3.9): the endpoint drained
// by the main loop itself, the term-aware apply wait, and events
// filtered at the source.

// ---- events filtered at source ----

// drainSub collects everything queued on a stopped node's subscription.
func drainSub(t testing.TB, sub *Subscription) []Event {
	t.Helper()
	var evs []Event
	for {
		ev, err := sub.Next(context.Background())
		if err != nil {
			return evs // ErrStopped: queue drained and node down
		}
		evs = append(evs, ev)
	}
}

func TestSubscribeFiltersAtSource(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(3),
		ElectionTimeout: testElection, StateMachine: &KVStore{}})
	if err != nil {
		t.Fatal(err)
	}
	all, twin := node.Subscribe(), node.Subscribe()
	some := node.Subscribe(EventBecameLeader, EventApplied)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)
	client, err := NewClient([]*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	const writes = 20
	for i := 0; i < writes; i++ {
		if _, err := client.SubmitWait(wctx, KVCommand{Op: "set", Key: "k", Value: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	<-node.Done()

	// Unfiltered: every event, and every subscriber the same sequence —
	// emission order, though the main loop and the apply worker both emit.
	evs := drainSub(t, all)
	if got := drainSub(t, twin); len(got) != len(evs) {
		t.Fatalf("unfiltered twins saw %d and %d events", len(evs), len(got))
	} else {
		for i := range evs {
			if got[i] != evs[i] {
				t.Fatalf("unfiltered twins diverge at %d: %v vs %v", i, evs[i], got[i])
			}
		}
	}
	count := make(map[EventKind]int)
	last := make(map[EventKind]int)
	for _, ev := range evs {
		count[ev.Kind]++
		switch ev.Kind {
		case EventAppended, EventCommitted, EventApplied:
			if ev.Index != last[ev.Kind]+1 {
				t.Fatalf("%v out of order: index %d after %d", ev.Kind, ev.Index, last[ev.Kind])
			}
			last[ev.Kind] = ev.Index
		}
	}
	// The term-opening no-op plus the writes, at every stage.
	for _, k := range []EventKind{EventAppended, EventCommitted, EventApplied} {
		if count[k] != writes+1 {
			t.Fatalf("%v seen %d times, want %d", k, count[k], writes+1)
		}
	}
	if count[EventBecameCandidate] != 1 || count[EventBecameLeader] != 1 {
		t.Fatalf("role events: %v", count)
	}

	// Filtered: exactly the unfiltered stream's projection onto its kinds.
	var want []Event
	for _, ev := range evs {
		if ev.Kind == EventBecameLeader || ev.Kind == EventApplied {
			want = append(want, ev)
		}
	}
	got := drainSub(t, some)
	if len(got) != len(want) {
		t.Fatalf("filtered subscription saw %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEmitUnwantedKindAllocatesNothing(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	var cmd any = KVCommand{Op: "set", Key: "k", Value: "v"}
	emitCommitted := func() {
		node.emit(Event{Kind: EventCommitted, Node: 0, Term: 1, Index: 7, Command: cmd})
	}
	if n := testing.AllocsPerRun(1000, emitCommitted); n != 0 {
		t.Fatalf("emit with no subscriptions: %v allocs/op", n)
	}
	sub := node.Subscribe(EventBecameLeader)
	if n := testing.AllocsPerRun(1000, emitCommitted); n != 0 {
		t.Fatalf("emit of an unwanted kind: %v allocs/op", n)
	}
	node.emit(Event{Kind: EventBecameLeader, Term: 2})
	node.shutdown()
	if evs := drainSub(t, sub); len(evs) != 1 || evs[0].Kind != EventBecameLeader || evs[0].Term != 2 {
		t.Fatalf("leadership watcher saw %v", evs)
	}
}

// ---- the endpoint drained by the main loop ----

// A node whose context is already dead must leave its endpoint's queue
// alone: crash-recovery boots a successor on the same id, and those
// messages are the successor's. run's select may pick the inbox over
// ctx.Done (both are ready), so the check lives in drainMessages;
// without it each round below loses the messages with probability ½.
func TestCancelledNodeTakesNothingOffItsEndpoint(t *testing.T) {
	const msgs = 5
	for round := 0; round < 20; round++ {
		nw := netsim.New(2)
		for i := 0; i < msgs; i++ {
			if err := nw.Node(1).Send(0, AppendEntries{Term: 1, LeaderID: 1}); err != nil {
				t.Fatal(err)
			}
		}
		node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1)})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		node.Start(ctx)
		<-node.Done()
		left := 0
		for {
			_, ok, err := nw.Node(0).TryRecv()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			left++
		}
		if left != msgs {
			t.Fatalf("round %d: cancelled node took %d of its successor's %d messages", round, msgs-left, msgs)
		}
	}
}

// Restarting a replica on the SAME live netsim endpoint (the context is
// cancelled; the network is not told) while writers keep the cluster
// busy: predecessor and successor share one mailbox and one Ready
// channel. Every acknowledged write must survive on every replica.
func TestRestartOnSharedEndpointUnderTrafficLosesNoAckedWrite(t *testing.T) {
	const n, writers = 3, 4
	nw := netsim.New(n, netsim.WithSeed(97))
	rng := sim.NewRNG(97)
	stores := make([]*MemStorage, n)
	kvs := make([]*KVStore, n)
	nodes := make([]*Node, n)
	cancels := make([]context.CancelFunc, n)
	boots := 0
	boot := func(id int) {
		kvs[id] = &KVStore{} // volatile: the log is replayed from Storage
		node, err := NewNode(Config{
			ID: id, Endpoint: nw.Node(id), RNG: rng.Fork(uint64(boots)),
			ElectionTimeout: testElection, HeartbeatInterval: testHeartbeat,
			StateMachine: kvs[id], Storage: stores[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		boots++
		ctx, cancel := context.WithCancel(context.Background())
		nodes[id], cancels[id] = node, cancel
		node.Start(ctx)
	}
	var client atomic.Pointer[Client]
	reclient := func() {
		c, err := NewClient(nodes)
		if err != nil {
			t.Fatal(err)
		}
		client.Store(c)
	}
	for id := 0; id < n; id++ {
		stores[id] = NewMemStorage()
		boot(id)
	}
	reclient()
	t.Cleanup(func() {
		for _, cancel := range cancels {
			cancel()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var stop atomic.Bool
	acked := make([]int, writers) // writer w's last acknowledged value of key "w<w>"
	var ackedTotal atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; !stop.Load(); v++ {
				cmd := KVCommand{Op: "set", Key: "w" + strconv.Itoa(w), Value: strconv.Itoa(v)}
				for {
					// A client's handles go stale as nodes restart under
					// it; bound the attempt and retry on the current one
					// (sets by a key's only writer are idempotent).
					actx, acancel := context.WithTimeout(ctx, 500*time.Millisecond)
					_, err := client.Load().SubmitWait(actx, cmd)
					acancel()
					if err == nil {
						break
					}
					if ctx.Err() != nil {
						t.Errorf("writer %d value %d: %v", w, v, err)
						return
					}
				}
				acked[w] = v
				ackedTotal.Add(1)
			}
		}()
	}
	// awaitTraffic lets every writer get a few more writes acknowledged,
	// so each restart lands on a cluster that is replicating.
	awaitTraffic := func() {
		target := ackedTotal.Load() + 4*writers
		deadline := time.Now().Add(20 * time.Second)
		for ackedTotal.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("writes stalled at %d acknowledged", ackedTotal.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for cycle := 0; cycle < 9; cycle++ {
		awaitTraffic()
		victim := cycle % n
		cancels[victim]()
		select {
		case <-nodes[victim].Done(): // the Storage is shared: wait out its workers
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d did not stop", victim)
		}
		boot(victim)
		reclient()
	}
	awaitTraffic()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	for w, v := range acked {
		if v == 0 {
			t.Fatalf("writer %d got nothing acknowledged", w)
		}
		want := strconv.Itoa(v)
		for id := 0; id < n; id++ {
			deadline := time.Now().Add(15 * time.Second)
			for {
				got, _ := kvs[id].Get("w" + strconv.Itoa(w))
				if got == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d: w%d=%q, acknowledged %q (status %v)", id, w, got, want, nodes[id].Status())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// ---- the term-aware apply wait ----

func TestAppliedNotifierWakesOnTermChange(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	a := newAppliedNotifier(0, 3)
	// waitAt waits as a SubmitWait whose entry was accepted at index in term.
	waitAt := func(index, term int) (int, error) {
		_, idx, err := a.wait(ctx, &ticket{rep: proposeReply{index: index, term: term}, resolved: true})
		return idx, err
	}

	// A level, not an edge: a term that moved between the accept reply
	// and the wait is seen on entry.
	a.setTerm(4)
	if idx, err := waitAt(10, 3); idx != 0 || err != nil {
		t.Fatalf("stale-term wait = %d %v, want an immediate (0, nil)", idx, err)
	}

	type result struct {
		idx int
		err error
	}
	waitIn := func(index, term int) chan result {
		ch := make(chan result, 1)
		go func() {
			idx, err := waitAt(index, term)
			ch <- result{idx, err}
		}()
		return ch
	}
	inTerm, anyT := waitIn(10, 4), waitIn(10, anyTerm)
	a.advance(5) // wakes both; neither condition holds yet
	a.setTerm(5)
	if r := <-inTerm; r.idx != 5 || r.err != nil {
		t.Fatalf("term-change wake = %+v", r)
	}
	select {
	case r := <-anyT:
		t.Fatalf("anyTerm waiter woke on a term change: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	a.advance(10)
	if r := <-anyT; r.idx != 10 || r.err != nil {
		t.Fatalf("apply wake = %+v", r)
	}
}

// termWaitCluster is the fixture for the two election tests below: three
// nodes that campaign only when told to, node 0 elected, and node 0's
// heartbeat switched off so that once partitioned it sends nothing
// unprompted. The client's base backoff is a minute, which makes the
// fallback poll tick ten minutes and any un-redirected retry at least
// thirty seconds: a SubmitWait that needed either would outlive the
// test's deadline instead of passing slowly.
type termWaitCluster struct {
	*cluster
	client *Client
	ctx    context.Context
	start  time.Time
	hist   []checker.RWOp
}

func newTermWaitCluster(t *testing.T, seed uint64) *termWaitCluster {
	c := newCluster(t, 3, seed, func(cfg *Config) {
		cfg.ManualCampaign = true
		if cfg.ID == 0 {
			cfg.HeartbeatInterval = time.Hour
		}
	})
	c.nodes[0].Campaign(nil)
	if l := c.waitLeader(); l != 0 {
		t.Fatalf("leader = %d, want 0", l)
	}
	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	client.backoff = time.Minute
	ctx, cancel := context.WithTimeout(c.ctx, 20*time.Second)
	t.Cleanup(cancel)
	return &termWaitCluster{cluster: c, client: client, ctx: ctx, start: time.Now()}
}

// write sets x to version through SubmitWait and records the op.
func (c *termWaitCluster) write(version int) (int, error) {
	inv := time.Since(c.start).Nanoseconds()
	idx, err := c.client.SubmitWait(c.ctx, KVCommand{Op: "set", Key: "x", Value: strconv.Itoa(version)})
	c.hist = append(c.hist, checker.RWOp{Key: "x", Version: int64(version), Invoke: inv, Return: time.Since(c.start).Nanoseconds()})
	return idx, err
}

// isolateLeaderWithWrite commits x=1 everywhere, cuts node 0 off, and
// starts SubmitWait(x=2) against it: accepted in node 0's term, with
// fillers proposals ahead of it, replicated to nobody. It returns the
// channel the write's outcome arrives on.
func (c *termWaitCluster) isolateLeaderWithWrite(fillers int) chan error {
	c.t.Helper()
	idx, err := c.write(1)
	if err != nil {
		c.t.Fatal(err)
	}
	for id := range c.nodes {
		c.waitLogLength(id, idx) // an up-to-date log, so either follower can win a vote
	}
	c.nw.Partition([]int{0}, []int{1, 2})
	for i := 0; i < fillers; i++ {
		if _, err := c.nodes[0].Propose(c.ctx, KVCommand{Op: "set", Key: "filler", Value: strconv.Itoa(i)}); err != nil {
			c.t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.write(2)
		done <- err
	}()
	c.waitLogLength(0, idx+fillers+1) // accepted
	return done
}

func (c *termWaitCluster) waitLogLength(id, length int) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[id].Status().LogLength < length {
		if time.Now().After(deadline) {
			c.t.Fatalf("node %d log did not reach %d: %v", id, length, c.nodes[id].Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// finish waits for the isolated write's outcome, reads x back
// linearizably, and checks the whole history. It returns how many times
// node 0 appended x=2 to its log: once per submission that reached it.
func (c *termWaitCluster) finish(done chan error) int {
	c.t.Helper()
	select {
	case err := <-done:
		if err != nil {
			c.t.Fatalf("SubmitWait across the term change: %v", err)
		}
	case <-c.ctx.Done():
		c.t.Fatal("SubmitWait did not notice the term change without a poll tick")
	}
	inv := time.Since(c.start).Nanoseconds()
	v, _, err := c.client.ReadWith(c.ctx, "x", ReadLinearizable)
	if err != nil {
		c.t.Fatal(err)
	}
	version, _ := strconv.Atoi(v)
	c.hist = append(c.hist, checker.RWOp{Read: true, Key: "x", Version: int64(version), Invoke: inv, Return: time.Since(c.start).Nanoseconds()})
	if rep := checker.CheckRegisterLinearizable(c.hist); !rep.Ok() {
		c.t.Fatalf("history not linearizable: %v", rep.Violations[0])
	}
	c.cancel()
	<-c.nodes[0].Done()
	appends := 0
	for _, ev := range drainSub(c.t, c.subs[0]) {
		if cmd, ok := ev.Command.(KVCommand); ok && ev.Kind == EventAppended && cmd.Key == "x" && cmd.Value == "2" {
			appends++
		}
	}
	return appends
}

// The accepting leader is cut off right after acceptance and deposed.
// When the partition heals, the new leader's first append makes node 0
// adopt the new term and truncate in one step; the waiter wakes on the
// term, finds the log shorter than its index, and resubmits through the
// redirect — no timer anywhere on the way.
func TestSubmitWaitResubmitsWhenTermChangeTruncates(t *testing.T) {
	c := newTermWaitCluster(t, 101)
	done := c.isolateLeaderWithWrite(3)
	c.nodes[1].Campaign(nil)
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[1].Status().State != Leader {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 did not win: %v", c.nodes[1].Status())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("SubmitWait returned while its leader was cut off: %v", err)
	default:
	}
	c.nw.Heal()
	if appends := c.finish(done); appends != 2 {
		t.Fatalf("node 0 appended x=2 %d times, want 2 (accepted as leader, resubmitted after truncation)", appends)
	}
}

// The accepting leader's term moves (it campaigns again) but its entry
// survives: once re-elected it commits the entry under the new term. The
// waiter wakes on the term, finds the entry still in the log, and then
// wakes on the apply — it must not resubmit.
func TestSubmitWaitKeepsEntryThatSurvivesTermChange(t *testing.T) {
	c := newTermWaitCluster(t, 103)
	done := c.isolateLeaderWithWrite(0)
	term := c.nodes[0].Status().Term
	c.nodes[0].Campaign(nil) // still cut off: a candidate with the entry uncommitted
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[0].Status().Term == term {
		if time.Now().After(deadline) {
			t.Fatal("node 0 did not start a new term")
		}
		time.Sleep(time.Millisecond)
	}
	c.nw.Heal()
	c.nodes[0].Campaign(nil)
	if appends := c.finish(done); appends != 1 {
		t.Fatalf("node 0 appended x=2 %d times, want 1 (the entry survived; nothing to resubmit)", appends)
	}
}

// ---- allocation guard ----

const submitWaitAllocs = 5

// TestSubmitWaitAllocs pins what one write costs the whole process on a
// 1-node netsim group (main loop, apply worker and client together):
// the per-write context.WithTimeout and its timer were five of these.
func TestSubmitWaitAllocs(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(3),
		ElectionTimeout: testElection, StateMachine: &KVStore{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)
	client, err := NewClient([]*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	var cmd any = KVCommand{Op: "set", Key: "k", Value: "v"}
	write := func() {
		if _, err := client.SubmitWait(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		write() // elect, and let the log and queues reach their steady sizes
	}
	got := testing.AllocsPerRun(2000, write)
	t.Logf("SubmitWait on a 1-node group: %v allocs/op", got)
	if got > submitWaitAllocs {
		t.Fatalf("SubmitWait on a 1-node group: %v allocs/op, pinned at %d", got, submitWaitAllocs)
	}
}

const readIndexAllocs = 2

// TestReadIndexAllocs pins what one linearizable read costs the whole
// process on a 1-node netsim group: the caller's reply channel (two
// objects, header and buffer, because the element holds a pointer). The
// drained batch, the confirmation round and its waiter list are reused;
// they were three more.
func TestReadIndexAllocs(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(3),
		ElectionTimeout: testElection, StateMachine: &KVStore{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)
	client, err := NewClient([]*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "k", Value: "v"}); err != nil {
		t.Fatal(err) // elected, and the term's no-op is committed: reads are served
	}
	read := func() {
		if _, err := node.ReadIndex(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		read()
	}
	got := testing.AllocsPerRun(2000, read)
	t.Logf("ReadIndex on a 1-node group: %v allocs/op", got)
	if got > readIndexAllocs {
		t.Fatalf("ReadIndex on a 1-node group: %v allocs/op, pinned at %d", got, readIndexAllocs)
	}
}
