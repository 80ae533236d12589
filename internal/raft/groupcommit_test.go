package raft

// Crash-safety tests for shared-disk group commit (DESIGN §3.8): several
// co-located Raft groups share one SyncCoalescer, the machine loses
// power in the middle of a shared barrier with dirty batches from
// multiple groups in flight, and every group must recover independently
// from its own durable prefix plus the quorum — with each group's full
// read/write history passing the register-linearizability checker, in
// both coalesce modes.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// cachedStorage models a log file behind a volatile OS write cache on a
// shared device: every mutation lands in the cache and is pushed to the
// durable inner store only when the coalescer's barrier covers this
// file's SyncDevice. A power cut discards the cache — mutations that no
// barrier covered are gone, exactly the torn-write shape the coalesced
// path must survive. An optional gate parks SyncDevice so a test can
// freeze a shared barrier round mid-flight.
type cachedStorage struct {
	inner Storage
	sc    *SyncCoalescer

	mu      sync.Mutex
	staged  []func() error // dirty mutations not yet on the platter
	dead    bool           // power cut: cache lost, device gone
	gate    chan struct{}  // non-nil: SyncDevice parks until closed
	entered chan struct{}  // signaled when a SyncDevice call hits the gate
}

func newCachedStorage(inner Storage, sc *SyncCoalescer) *cachedStorage {
	return &cachedStorage{inner: inner, sc: sc}
}

// block parks the next SyncDevice at the gate; the returned channel
// receives one token when a caller is actually parked there (i.e. a
// barrier round is frozen mid-flight).
func (s *cachedStorage) block() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = make(chan struct{})
	s.entered = make(chan struct{}, 1)
	return s.entered
}

// powerCut kills the machine: the cache's dirty mutations are discarded,
// every in-flight and future device operation fails, and any barrier
// parked at the gate is released into the failure.
func (s *cachedStorage) powerCut() {
	s.mu.Lock()
	s.dead = true
	s.staged = nil
	gate := s.gate
	s.gate = nil
	s.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

// stage buffers one mutation and asks the shared coalescer for a
// barrier. The mutation reaches the inner store inside SyncDevice —
// possibly run by another group's barrier leader — before this call
// returns.
func (s *cachedStorage) stage(mut func() error) error {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return errors.New("raft test: storage power cut")
	}
	s.staged = append(s.staged, mut)
	s.mu.Unlock()
	_, err := s.sc.Sync(s)
	return err
}

// SyncDevice implements SyncTarget: push the cache to the platter.
func (s *cachedStorage) SyncDevice() error {
	s.mu.Lock()
	gate, entered := s.gate, s.entered
	s.mu.Unlock()
	if gate != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return errors.New("raft test: storage power cut")
	}
	for _, mut := range s.staged {
		if err := mut(); err != nil {
			return err
		}
	}
	s.staged = nil
	return nil
}

func (s *cachedStorage) SetState(term, votedFor int) error {
	return s.stage(func() error { return s.inner.SetState(term, votedFor) })
}

func (s *cachedStorage) TruncateAndAppend(prevIndex int, entries []Entry) error {
	return s.stage(func() error { return s.inner.TruncateAndAppend(prevIndex, entries) })
}

func (s *cachedStorage) AppendBatch(muts []LogMutation) error {
	return s.stage(func() error { return s.inner.AppendBatch(muts) })
}

func (s *cachedStorage) SaveSnapshot(index, term int, data []byte) error {
	return s.stage(func() error { return s.inner.SaveSnapshot(index, term, data) })
}

func (s *cachedStorage) Load() (PersistentState, error) { return s.inner.Load() }

// gcGroup is one Raft group in the shared-machine fixture: three nodes
// on an isolated simulated network, with node 0 — the co-located
// replica — running a cachedStorage over the shared coalescer.
type gcGroup struct {
	t       *testing.T
	nw      *netsim.Network
	rng     *sim.RNG
	sc      *SyncCoalescer
	boots   int
	seed    uint64
	inner   []*MemStorage
	cache   *cachedStorage // node 0's write cache
	kvs     []*KVStore
	nodes   []*Node
	cancels []context.CancelFunc
}

func newGCGroup(t *testing.T, g int, seed uint64, sc *SyncCoalescer) *gcGroup {
	t.Helper()
	const n = 3
	c := &gcGroup{
		t:       t,
		nw:      netsim.New(n, netsim.WithSeed(seed+uint64(g))),
		rng:     sim.NewRNG(seed + 100*uint64(g)),
		sc:      sc,
		seed:    seed,
		inner:   make([]*MemStorage, n),
		kvs:     make([]*KVStore, n),
		nodes:   make([]*Node, n),
		cancels: make([]context.CancelFunc, n),
	}
	for id := 0; id < n; id++ {
		c.inner[id] = NewMemStorage()
		c.kvs[id] = &KVStore{}
		c.boot(id)
	}
	t.Cleanup(func() {
		if c.cache != nil {
			c.cache.powerCut() // unpark anything still at the gate
		}
		for _, cancel := range c.cancels {
			if cancel != nil {
				cancel()
			}
		}
	})
	return c
}

func (c *gcGroup) boot(id int) {
	c.t.Helper()
	c.boots++
	var st Storage = c.inner[id]
	if id == 0 {
		// A rebooted machine starts with an empty cache over the
		// platter's surviving prefix.
		c.cache = newCachedStorage(c.inner[0], c.sc)
		st = c.cache
	}
	node, err := NewNode(Config{
		ID:                id,
		Endpoint:          c.nw.Node(id),
		RNG:               c.rng.Fork(uint64(id) + 1000*uint64(c.boots)),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      c.kvs[id],
		Storage:           st,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.nodes[id] = node
	c.cancels[id] = cancel
	node.Start(ctx)
}

// electNode0 campaigns node 0 until it leads, so the co-located replica
// is the one holding dirty leader batches when the power goes.
func (c *gcGroup) electNode0() {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if c.nodes[0].Status().State == Leader {
			return
		}
		c.nodes[0].Campaign(nil)
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatal("node 0 never became leader")
}

func (c *gcGroup) crashNode0() {
	c.t.Helper()
	c.nw.Crash(0)
	c.cancels[0]()
	select {
	case <-c.nodes[0].Done():
	case <-time.After(10 * time.Second):
		c.t.Fatal("node 0 did not stop")
	}
}

func (c *gcGroup) restartNode0() {
	c.t.Helper()
	c.nw.Restart(0)
	c.kvs[0] = &KVStore{} // volatile: reapply from the persisted log
	c.boot(0)
}

func (c *gcGroup) waitLeader(exclude int) int {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for id, node := range c.nodes {
			if id == exclude || c.nw.Crashed(id) {
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

func (c *gcGroup) propose(cmd any) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader(-1)
		_, err := c.nodes[leader].Propose(context.Background(), cmd)
		if err == nil {
			return
		}
		var nl ErrNotLeader
		if !errors.As(err, &nl) && !errors.Is(err, ErrStopped) {
			c.t.Fatal(err)
		}
	}
	c.t.Fatal("could not propose")
}

func (c *gcGroup) waitValue(key, val string, ids ...int) {
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
	c.t.Fatalf("%s=%q not applied on %v", key, val, ids)
}

func (c *gcGroup) readLinearizable(key string) string {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader(-1)
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

// TestGroupCommitPowerCutRecovery cuts power in the middle of a shared
// barrier: three groups' leaders are co-located on one machine behind
// one coalescer, group 0's flush freezes as barrier leader while groups
// 1 and 2 park their dirty batches on the same round, and the machine
// dies with all three caches dirty. Every group must recover
// independently — the lost batches come back from each group's own
// quorum, no group's recovery depends on another's — and each group's
// history must stay linearizable.
func TestGroupCommitPowerCutRecovery(t *testing.T) {
	t.Run("coalesced", func(t *testing.T) {
		const groups = 3
		sc := NewSyncCoalescer(SyncerConfig{})
		start := time.Now()
		ns := func() int64 { return time.Since(start).Nanoseconds() }

		gs := make([]*gcGroup, groups)
		histories := make([][]checker.RWOp, groups)
		for g := range gs {
			gs[g] = newGCGroup(t, g, 131, sc)
			gs[g].electNode0()
		}

		// A committed baseline write per group, durable everywhere.
		for g, c := range gs {
			inv := ns()
			c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
			c.waitValue("x", "1", 0, 1, 2)
			histories[g] = append(histories[g], checker.RWOp{Key: "x", Version: 1, Invoke: inv, Return: ns()})
		}

		// Freeze the shared device under group 0's next flush, then
		// write through every group: group 0's persist worker becomes
		// the stuck barrier leader, and groups 1-2 park their dirty
		// batches on the same frozen round.
		entered := gs[0].cache.block()
		invs := make([]int64, groups)
		invs[0] = ns()
		go func() {
			_, _ = gs[0].nodes[0].Propose(context.Background(), KVCommand{Op: "set", Key: "x", Value: "2"})
		}()
		select {
		case <-entered:
		case <-time.After(15 * time.Second):
			t.Fatal("group 0's flush never reached the device")
		}
		for g := 1; g < groups; g++ {
			invs[g] = ns()
			go func(g int) {
				_, _ = gs[g].nodes[0].Propose(context.Background(), KVCommand{Op: "set", Key: "x", Value: "2"})
			}(g)
		}

		// The pipelined path commits off follower acks alone: every
		// group's quorum applies x=2 while the machine's device is
		// frozen.
		for g, c := range gs {
			c.waitValue("x", "2", 1, 2)
			histories[g] = append(histories[g], checker.RWOp{Key: "x", Version: 2, Invoke: invs[g], Return: ns()})
		}
		// The shared round is genuinely frozen mid-flight: groups
		// 1 and 2 are parked on the coalescer behind group 0's
		// stuck leadership.
		deadline := time.Now().Add(15 * time.Second)
		for {
			sc.mu.Lock()
			parked := len(sc.pending)
			sc.mu.Unlock()
			if parked >= groups-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d groups parked on the shared barrier, want %d", parked, groups-1)
			}
			time.Sleep(100 * time.Microsecond)
		}
		// And the hazard is staged for the stuck barrier leader:
		// its platter does not hold what its followers applied.
		ps, err := gs[0].inner[0].Load()
		if err != nil {
			t.Fatal(err)
		}
		if durable := ps.SnapIndex + len(ps.Entries); durable >= gs[0].kvs[1].AppliedIndex() {
			t.Fatalf("group 0 platter holds through %d, followers applied %d: hazard not staged",
				durable, gs[0].kvs[1].AppliedIndex())
		}

		// Power cut: every cache's dirty batches are gone at once,
		// mid-barrier. Then the machine's replicas crash.
		for _, c := range gs {
			c.cache.powerCut()
		}
		for _, c := range gs {
			c.crashNode0()
		}

		// Each group re-elects among survivors and keeps the value,
		// then the machine comes back and node 0 recovers from its
		// surviving prefix plus the quorum — per group, independently.
		for _, c := range gs {
			c.waitLeader(0)
		}
		for _, c := range gs {
			c.restartNode0()
		}
		for g, c := range gs {
			c.waitValue("x", "2", 0)
			inv := ns()
			if v := c.readLinearizable("x"); v != "2" {
				t.Fatalf("group %d rolled back a committed write across the power cut: x=%q", g, v)
			}
			histories[g] = append(histories[g], checker.RWOp{Read: true, Key: "x", Version: 2, Invoke: inv, Return: ns()})
		}

		for g, h := range histories {
			if rep := checker.CheckRegisterLinearizable(h); !rep.Ok() {
				t.Fatalf("group %d linearizability violated (%d ops): %v", g, len(h), rep.Violations[0])
			}
		}
	})
}
