package raft

// Tests for the pipelined write path's safety rails: commit reached by
// followers while the leader's own fsync is parked, proposal replies
// fenced behind leader durability, recovery after a leader crash that
// loses an entry the quorum committed, bounded-apply-queue backpressure,
// the error a failed disk stops a node with, and a chaos soak for the apply worker (run under -race in CI).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// gatedStorage wraps a Storage and can hold every write at the
// durability barrier (the fsync seam) or fail it outright (a power
// cut). It stages the parallel-persist hazard: followers quorum-commit
// an entry the leader never made locally durable.
type gatedStorage struct {
	inner  Storage
	mu     sync.Mutex
	gate   chan struct{} // non-nil: writes wait for it to close
	dead   bool          // power cut: writes fail without reaching inner
	parked atomic.Int32  // writes waiting at the gate right now
}

func newGatedStorage(inner Storage) *gatedStorage { return &gatedStorage{inner: inner} }

// block holds all subsequent writes at the barrier until release or
// powerCut.
func (g *gatedStorage) block() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
}

// release lets the held writes through to the inner store.
func (g *gatedStorage) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

// powerCut fails the held writes (and all future ones) without touching
// the inner store, as if the machine lost power mid-fsync.
func (g *gatedStorage) powerCut() {
	g.mu.Lock()
	g.dead = true
	gate := g.gate
	g.gate = nil
	g.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

func (g *gatedStorage) barrier() error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.parked.Add(1)
		<-gate
		g.parked.Add(-1)
	}
	g.mu.Lock()
	dead := g.dead
	g.mu.Unlock()
	if dead {
		return errors.New("raft test: storage power cut")
	}
	return nil
}

func (g *gatedStorage) SetState(term, votedFor int) error {
	if err := g.barrier(); err != nil {
		return err
	}
	return g.inner.SetState(term, votedFor)
}

func (g *gatedStorage) TruncateAndAppend(prevIndex int, entries []Entry) error {
	if err := g.barrier(); err != nil {
		return err
	}
	return g.inner.TruncateAndAppend(prevIndex, entries)
}

func (g *gatedStorage) AppendBatch(muts []LogMutation) error {
	if err := g.barrier(); err != nil {
		return err
	}
	return g.inner.AppendBatch(muts)
}

func (g *gatedStorage) SaveSnapshot(index, term int, data []byte) error {
	if err := g.barrier(); err != nil {
		return err
	}
	return g.inner.SaveSnapshot(index, term, data)
}

func (g *gatedStorage) Load() (PersistentState, error) { return g.inner.Load() }

// pipeCluster runs nodes with per-node contexts and MemStorage behind a
// gatedStorage wrapper, so a test can crash and restart a node, or park
// or power-cut its durability barrier while the rest of the cluster
// runs. Until a test calls block or powerCut, every write passes
// straight through the wrapper.
type pipeCluster struct {
	t       *testing.T
	nw      *netsim.Network
	rng     *sim.RNG
	boots   int
	stores  []*MemStorage
	gates   []*gatedStorage
	kvs     []*KVStore
	nodes   []*Node
	cancels []context.CancelFunc
}

func newPipeCluster(t *testing.T, n int, seed uint64) *pipeCluster {
	t.Helper()
	c := &pipeCluster{
		t:       t,
		nw:      netsim.New(n, netsim.WithSeed(seed)),
		rng:     sim.NewRNG(seed),
		stores:  make([]*MemStorage, n),
		gates:   make([]*gatedStorage, n),
		kvs:     make([]*KVStore, n),
		nodes:   make([]*Node, n),
		cancels: make([]context.CancelFunc, n),
	}
	for id := 0; id < n; id++ {
		c.stores[id] = NewMemStorage()
		c.kvs[id] = &KVStore{}
		c.boot(id)
	}
	t.Cleanup(func() {
		for id, cancel := range c.cancels {
			c.gates[id].release() // unpark any waiting persist worker
			if cancel != nil {
				cancel()
			}
		}
	})
	return c
}

func (c *pipeCluster) boot(id int) {
	c.t.Helper()
	c.boots++
	c.gates[id] = newGatedStorage(c.stores[id])
	node, err := NewNode(Config{
		ID:                id,
		Endpoint:          c.nw.Node(id),
		RNG:               c.rng.Fork(uint64(id) + 1000*uint64(c.boots)),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      c.kvs[id],
		Storage:           c.gates[id],
	})
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.nodes[id] = node
	c.cancels[id] = cancel
	node.Start(ctx)
}

func (c *pipeCluster) crash(id int) {
	c.t.Helper()
	c.nw.Crash(id)
	c.cancels[id]()
	select {
	case <-c.nodes[id].Done():
	case <-time.After(10 * time.Second):
		c.t.Fatalf("node %d did not stop", id)
	}
}

func (c *pipeCluster) restart(id int) {
	c.t.Helper()
	c.nw.Restart(id)
	// State machines are volatile: a restarted processor reapplies its
	// persisted log from scratch.
	c.kvs[id] = &KVStore{}
	c.boot(id)
}

func (c *pipeCluster) waitLeader(exclude map[int]bool) int {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for id, node := range c.nodes {
			if exclude[id] || c.nw.Crashed(id) {
				continue
			}
			if node.Status().State == Leader {
				return id
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no leader")
	return -1
}

func (c *pipeCluster) propose(cmd any) int {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader(nil)
		idx, err := c.nodes[leader].Propose(context.Background(), cmd)
		if err == nil {
			return idx
		}
		var nl ErrNotLeader
		if !errors.As(err, &nl) && !errors.Is(err, ErrStopped) {
			c.t.Fatal(err)
		}
	}
	c.t.Fatal("could not propose")
	return 0
}

// waitApplied blocks until every node in ids has applied through index.
func (c *pipeCluster) waitApplied(index int, ids ...int) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, id := range ids {
			if c.kvs[id].AppliedIndex() < index {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("index %d not applied", index)
}

// waitValue blocks until every node in ids has applied a state where
// key holds val.
func (c *pipeCluster) waitValue(key, val string, ids ...int) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, id := range ids {
			if v, ok := c.kvs[id].Get(key); !ok || v != val {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range ids {
		v, _ := c.kvs[id].Get(key)
		c.t.Logf("node %d: %s=%q, applied %d, status %v", id, key, v, c.kvs[id].AppliedIndex(), c.nodes[id].Status())
	}
	c.t.Fatalf("%s=%q not applied on %v", key, val, ids)
}

// readLinearizable serves one linearizable read of key through whatever
// node currently leads, retrying across leadership changes.
func (c *pipeCluster) readLinearizable(key string) string {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader(nil)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.nodes[leader].ReadIndex(ctx)
		cancel()
		if err == nil {
			v, _ := c.kvs[leader].Get(key)
			return v
		}
		var nl ErrNotLeader
		if !errors.As(err, &nl) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrStopped) {
			c.t.Fatalf("linearizable read: %v", err)
		}
	}
	c.t.Fatal("linearizable read never succeeded")
	return ""
}

// TestProposeReplyFencedBehindLeaderFsync pins the tentpole's two halves
// at once: with the leader's disk parked at the fsync barrier, (1) the
// entry still commits and applies cluster-wide off the followers' acks
// alone — AppendEntries departed before the leader's persist completed,
// and the commit rule counts the leader at its durable index like any
// other match — while (2) the proposal reply, which externalizes the
// accept to the client, stays fenced until the leader's own batch lands.
func TestProposeReplyFencedBehindLeaderFsync(t *testing.T) {
	c := newPipeCluster(t, 3, 97)
	c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
	c.waitValue("x", "1", 0, 1, 2)

	leader := c.waitLeader(nil)
	var followers []int
	for id := range c.nodes {
		if id != leader {
			followers = append(followers, id)
		}
	}
	c.gates[leader].block()

	type propResult struct {
		idx int
		err error
	}
	resCh := make(chan propResult, 1)
	var returned atomic.Bool
	go func() {
		idx, err := c.nodes[leader].Propose(context.Background(), KVCommand{Op: "set", Key: "x", Value: "2"})
		returned.Store(true)
		resCh <- propResult{idx, err}
	}()

	// Quorum commit without the leader's disk: both followers apply it.
	c.waitValue("x", "2", followers...)
	af := c.kvs[followers[0]].AppliedIndex()

	if returned.Load() {
		t.Fatal("proposal reply externalized before the leader's own fsync landed")
	}
	ps, err := c.stores[leader].Load()
	if err != nil {
		t.Fatal(err)
	}
	if durable := ps.SnapIndex + len(ps.Entries); durable >= af {
		t.Fatalf("leader disk already holds index %d (followers applied %d) despite the gate", durable, af)
	}
	if ci := c.nodes[leader].Status().CommitIndex; ci < af {
		t.Fatalf("leader commit %d never advanced to the follower-acked %d", ci, af)
	}

	// Release the disk: the fenced reply must now arrive, carrying the
	// index the quorum already committed.
	c.gates[leader].release()
	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("propose after release: %v", res.err)
		}
		if res.idx < 1 || res.idx > af {
			t.Fatalf("propose returned index %d, want within (0, %d]", res.idx, af)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("proposal reply never arrived after the gate released")
	}
	// And the leader's disk catches up to the tail it acknowledged.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, err := c.stores[leader].Load()
		if err != nil {
			t.Fatal(err)
		}
		if ps.SnapIndex+len(ps.Entries) >= af {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader disk stuck at %d, acked %d", ps.SnapIndex+len(ps.Entries), af)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitWaitReturnsWhenAcceptLandsAfterApply: the apply lands before
// the accept. The leader's own disk is held shut, so its followers' acks
// commit the write and the leader applies it while the accept is still
// fenced behind the leader's persist. The writer, parked once on the
// applied broadcast, slept through that apply (its ticket was not yet
// resolved), and nothing else will advance the applied index: only the
// resolution itself, when the persist lands, can wake it.
func TestSubmitWaitReturnsWhenAcceptLandsAfterApply(t *testing.T) {
	c := newPipeCluster(t, 3, 59)
	c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
	c.waitValue("x", "1", 0, 1, 2)
	leader := c.waitLeader(nil)
	client, err := NewClient([]*Node{c.nodes[leader]})
	if err != nil {
		t.Fatal(err)
	}
	c.gates[leader].block()
	type result struct {
		idx int
		err error
	}
	done := make(chan result, 1)
	go func() {
		idx, err := client.SubmitWait(context.Background(), KVCommand{Op: "set", Key: "x", Value: "2"})
		done <- result{idx, err}
	}()

	c.waitValue("x", "2", leader) // applied on the leader, through the followers' disks
	applied := c.kvs[leader].AppliedIndex()
	select {
	case r := <-done:
		t.Fatalf("SubmitWait returned %+v before the leader's disk held the entry", r)
	default:
	}
	ps, err := c.stores[leader].Load()
	if err != nil {
		t.Fatal(err)
	}
	if durable := ps.SnapIndex + len(ps.Entries); durable >= applied {
		t.Fatalf("leader disk holds index %d with %d applied despite the gate", durable, applied)
	}

	c.gates[leader].release()
	select {
	case r := <-done:
		if r.err != nil || r.idx < 1 || r.idx > applied {
			t.Fatalf("SubmitWait = %+v, want an index within (0, %d]", r, applied)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait still parked 10 s after its accept landed behind its apply")
	}
}

// TestLeaderCrashAfterQuorumCommitOfUnsyncedEntry is the classic
// parallel-persist regression: followers quorum-commit an entry the
// leader never locally fsynced, the leader crashes (its disk power-cut
// so the entry is truly lost locally), and on restart the cluster must
// recover the entry from the quorum — no un-commit — with the full
// read/write history passing the register-linearizability checker.
func TestLeaderCrashAfterQuorumCommitOfUnsyncedEntry(t *testing.T) {
	c := newPipeCluster(t, 3, 101)
	start := time.Now()
	ns := func() int64 { return time.Since(start).Nanoseconds() }
	var mu sync.Mutex
	var history []checker.RWOp
	record := func(op checker.RWOp) {
		mu.Lock()
		history = append(history, op)
		mu.Unlock()
	}

	inv1 := ns()
	c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
	c.waitValue("x", "1", 0, 1, 2)
	record(checker.RWOp{Key: "x", Version: 1, Invoke: inv1, Return: ns()})

	leader := c.waitLeader(nil)
	var followers []int
	for id := range c.nodes {
		if id != leader {
			followers = append(followers, id)
		}
	}

	c.gates[leader].block()
	inv2 := ns()
	go func() {
		// The reply is fenced behind the gated fsync and swallowed by the
		// crash; the write's fate is read off the followers below, and the
		// checker treats it as completing at the observation point.
		_, _ = c.nodes[leader].Propose(context.Background(), KVCommand{Op: "set", Key: "x", Value: "2"})
	}()
	c.waitValue("x", "2", followers...)
	record(checker.RWOp{Key: "x", Version: 2, Invoke: inv2, Return: ns()})

	// The hazard is staged: the quorum committed and applied an entry the
	// leader's disk does not hold.
	ps, err := c.stores[leader].Load()
	if err != nil {
		t.Fatal(err)
	}
	af := c.kvs[followers[0]].AppliedIndex()
	if durable := ps.SnapIndex + len(ps.Entries); durable >= af {
		t.Fatalf("leader disk holds through %d, followers applied %d: hazard not staged", durable, af)
	}
	// The gated leader still externalizes the committed value — a
	// linearizable read sees x=2 before the leader ever fsyncs it, which
	// is safe precisely because the value is quorum-durable.
	rinv := ns()
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	_, rerr := c.nodes[leader].ReadIndex(rctx)
	rcancel()
	if rerr != nil {
		t.Fatalf("read on gated leader: %v", rerr)
	}
	if v, _ := c.kvs[leader].Get("x"); v != "2" {
		t.Fatalf("gated leader read x=%q, want \"2\"", v)
	}
	record(checker.RWOp{Read: true, Key: "x", Version: 2, Invoke: rinv, Return: ns()})

	// Power-cut the disk, then crash the process: the entry was never
	// locally durable, so recovery must come from the quorum that
	// committed it.
	c.gates[leader].powerCut()
	c.crash(leader)
	c.waitLeader(map[int]bool{leader: true})
	c.restart(leader)
	c.waitValue("x", "2", leader)

	// No un-commit: a linearizable read after recovery still sees v2.
	rinv = ns()
	v := c.readLinearizable("x")
	record(checker.RWOp{Read: true, Key: "x", Version: 2, Invoke: rinv, Return: ns()})
	if v != "2" {
		t.Fatalf("committed write rolled back across the crash: x=%q", v)
	}

	if rep := checker.CheckRegisterLinearizable(history); !rep.Ok() {
		t.Fatalf("linearizability violated (%d ops): %v", len(history), rep.Violations[0])
	}
}

// blockingSM is a StateMachine whose Apply parks on a gate, so tests
// can wedge the apply worker and fill the bounded apply queue.
type blockingSM struct {
	mu      sync.Mutex
	gate    chan struct{}
	indices []int
}

func newBlockingSM() *blockingSM { return &blockingSM{gate: make(chan struct{})} }

func (b *blockingSM) Apply(index int, cmd any) {
	b.mu.Lock()
	gate := b.gate
	b.mu.Unlock()
	if gate != nil {
		<-gate
	}
	b.mu.Lock()
	b.indices = append(b.indices, index)
	b.mu.Unlock()
}

func (b *blockingSM) release() {
	b.mu.Lock()
	if b.gate != nil {
		close(b.gate)
		b.gate = nil
	}
	b.mu.Unlock()
}

func (b *blockingSM) applied() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.indices...)
}

// TestApplyQueueBackpressureStallsWithoutDropping wedges the apply
// worker on its first entry while writes commit behind it one batch at a
// time, more batches than the apply queue holds. The full queue must
// stall the pipeline — never drop work — so once the state machine
// unblocks, every committed entry applies exactly once, in index order.
func TestApplyQueueBackpressureStallsWithoutDropping(t *testing.T) {
	const writes = applyQueueDepth + 8
	nw := netsim.New(1, netsim.WithSeed(5))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sm := newBlockingSM()
	t.Cleanup(sm.release)
	node, err := NewNode(Config{
		ID:                0,
		Endpoint:          nw.Node(0),
		RNG:               sim.NewRNG(5),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      sm,
		Storage:           NewMemStorage(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(ctx)
	deadline := time.Now().Add(15 * time.Second)
	for node.Status().State != Leader {
		if time.Now().After(deadline) {
			t.Fatal("single node never elected itself")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// One proposer, one write at a time: each accept reply leaves before
	// its commit is queued for apply, so every write is its own batch.
	proposed := make(chan error, 1)
	go func() {
		pctx, pcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer pcancel()
		for i := 0; i < writes; i++ {
			if _, err := node.Propose(pctx, KVCommand{Op: "set", Key: fmt.Sprintf("k%d", i), Value: "v"}); err != nil {
				proposed <- fmt.Errorf("propose %d: %w", i, err)
				return
			}
		}
		proposed <- nil
	}()

	// Let the pipeline wedge: the worker is parked on the term-opening
	// no-op, the queue fills with single-write batches, and the main loop
	// blocks in enqueueApply. Nothing may reach the state machine past the
	// gate, and the proposer cannot finish.
	for len(node.applyQ) < applyQueueDepth {
		if time.Now().After(deadline) {
			t.Fatalf("apply queue reached %d of %d", len(node.applyQ), applyQueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-proposed:
		t.Fatalf("all %d writes returned behind a wedged apply worker (%v)", writes, err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := sm.applied(); len(got) != 0 {
		t.Fatalf("entries applied while the gate was held: %v", got)
	}

	sm.release()
	if err := <-proposed; err != nil {
		t.Fatal(err)
	}
	want := writes + 1 // the term-opening no-op, then the writes
	deadline = time.Now().Add(15 * time.Second)
	for len(sm.applied()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("applied %d entries, want %d", len(sm.applied()), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	got := sm.applied()
	if len(got) != want {
		t.Fatalf("applied %d entries, want exactly %d: %v", len(got), want, got)
	}
	for i, idx := range got {
		if idx != i+1 {
			t.Fatalf("apply order broken at position %d: indices %v", i, got)
		}
	}
}

// TestFatalStopSaysWhy cuts the power under a lone leader's disk: the
// write that hit the cut, and every call after the node stopped, fail
// with an error that is still ErrStopped and names the cause.
func TestFatalStopSaysWhy(t *testing.T) {
	gate := newGatedStorage(NewMemStorage())
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(9),
		ElectionTimeout: testElection, StateMachine: &KVStore{}, Storage: gate})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nd.Start(ctx)
	for nd.Status().State != Leader {
		if ctx.Err() != nil {
			t.Fatal("single node never elected itself")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := nd.Propose(ctx, "before"); err != nil {
		t.Fatal(err)
	}
	gate.powerCut()
	check := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, ErrStopped) || !strings.Contains(fmt.Sprint(err), "power cut") {
			t.Fatalf("%s returned %v, want ErrStopped naming the power cut", call, err)
		}
	}
	_, err = nd.Propose(ctx, "cut")
	check("the Propose that hit the cut", err)
	<-nd.Done()
	_, err = nd.Propose(ctx, "after")
	check("Propose", err)
	_, err = nd.ReadIndex(ctx)
	check("ReadIndex", err)
	_, err = nd.AwaitApplied(ctx, 1000)
	check("AwaitApplied", err)
}

// TestPipelineChaosSoak runs the pipelined write path under concurrent
// clients, slow disks, and forced elections (CI runs it under -race).
// Every replica persists to a FileStorage whose barriers also pay a
// modeled 200 µs device, through the seam production uses
// (FileStorage.SetSyncer). Invariants: AwaitApplied never fires before the state
// machine covers the index it reports, the cluster converges to one state
// afterward, and no acknowledged write is lost.
func TestPipelineChaosSoak(t *testing.T) {
	const clients = 4
	dir := t.TempDir()
	var stores []*FileStorage
	c := newCluster(t, 3, 113, func(cfg *Config) {
		s, err := OpenFileStorage(filepath.Join(dir, fmt.Sprintf("n%d.wal", cfg.ID)))
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
		s.SetSyncer(NewSyncCoalescer(SyncerConfig{Disk: NewDisk(200 * time.Microsecond)}))
		cfg.Storage = s
	})
	// Files close only once every node has stopped writing to them.
	t.Cleanup(func() {
		c.cancel()
		for _, nd := range c.nodes {
			<-nd.Done()
		}
		for _, s := range stores {
			_ = s.Close()
		}
	})
	c.waitLeader()
	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}

	runCtx, stop := context.WithTimeout(c.ctx, 400*time.Millisecond)
	defer stop()
	var (
		wg        sync.WaitGroup
		ackMu     sync.Mutex
		lastAcked = map[string]int{}
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			key := fmt.Sprintf("c%d", cl)
			for i := 1; ; i++ {
				if _, err := client.SubmitWait(runCtx, KVCommand{Op: "set", Key: key, Value: strconv.Itoa(i)}); err != nil {
					return
				}
				ackMu.Lock()
				lastAcked[key] = i
				ackMu.Unlock()
			}
		}(cl)
	}
	// Forced elections mid-load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(113))
		for {
			select {
			case <-runCtx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
			c.nodes[rng.Intn(len(c.nodes))].Campaign(nil)
		}
	}()
	// AwaitApplied must never report an index the state machine has not
	// covered: the notifier advances only after Apply returns.
	for id := range c.nodes {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				target := c.kvs[id].AppliedIndex() + 1
				idx, err := c.nodes[id].AwaitApplied(runCtx, target)
				if err != nil {
					return
				}
				if got := c.kvs[id].AppliedIndex(); got < idx {
					t.Errorf("node %d: AwaitApplied reported %d but the state machine is at %d", id, idx, got)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// Quiesce: a sentinel write flushes every node to one applied
	// frontier; after it the key-value states must be identical and no
	// acknowledged write may have gone missing.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	sidx, err := client.SubmitWait(sctx, KVCommand{Op: "set", Key: "sentinel", Value: "done"})
	if err != nil {
		t.Fatalf("sentinel write: %v", err)
	}
	c.waitApplied(sidx, 0, 1, 2)

	ackMu.Lock()
	defer ackMu.Unlock()
	total := 0
	for _, n := range lastAcked {
		total += n
	}
	if total == 0 {
		t.Fatal("degenerate soak: no write was ever acknowledged")
	}
	for key, floor := range lastAcked {
		base, ok := c.kvs[0].Get(key)
		if !ok {
			t.Fatalf("node 0 lost key %s entirely", key)
		}
		for id := 1; id < len(c.kvs); id++ {
			if v, _ := c.kvs[id].Get(key); v != base {
				t.Fatalf("divergence on %s: node 0 has %q, node %d has %q", key, base, id, v)
			}
		}
		if got, _ := strconv.Atoi(base); got < floor {
			t.Fatalf("acknowledged write lost: %s=%s, acked through %d", key, base, floor)
		}
	}
	c.checkElectionSafety()
}

// TestReadIndexRefusalCarriesLeaderHint drives a follower over the wire
// (satellite of the cross-process NotLeader redirect): a ReadIndexRequest
// sent to a non-leader must be refused with the refuser's current leader
// hint, so the remote client re-routes in one hop instead of probing.
func TestReadIndexRefusalCarriesLeaderHint(t *testing.T) {
	nw := netsim.New(3, netsim.WithSeed(3), netsim.WithFIFO())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(3),
		ElectionTimeout:   time.Hour, // never campaigns: stays follower
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(ctx)

	// Node 2 declares itself leader of term 1; node 0 becomes its follower.
	if err := nw.Node(2).Send(0, AppendEntries{Term: 1, LeaderID: 2}); err != nil {
		t.Fatal(err)
	}
	if m, err := nw.Node(2).Recv(ctx); err != nil {
		t.Fatal(err)
	} else if r, ok := m.Payload.(AppendEntriesReply); !ok || !r.Success {
		t.Fatalf("heartbeat not acked: %v", m.Payload)
	}

	// A third process asks node 0 for a read index; the refusal must name
	// the leader node 0 knows.
	if err := nw.Node(1).Send(0, ReadIndexRequest{Term: 1, ID: 7}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := nw.Node(1).Recv(ctx)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		r, ok := m.Payload.(ReadIndexReply)
		if !ok {
			continue
		}
		if r.Success {
			t.Fatal("non-leader confirmed a read index")
		}
		if r.ID != 7 {
			t.Fatalf("reply correlates id %d, want 7", r.ID)
		}
		if r.LeaderID != 2 {
			t.Fatalf("refusal hint names %d, want 2", r.LeaderID)
		}
		break
	}
}
