package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

// recordingSM wraps a KVStore and records the KV commands it applies, in
// order. Term-opening Noop entries are deliberately not recorded: their
// count depends on real-time election timing, while the client-command
// sequence per shard is what determinism over a fixed seed promises.
type recordingSM struct {
	kv  raft.KVStore
	mu  sync.Mutex
	ops []string
}

func (r *recordingSM) Apply(index int, cmd any) {
	r.kv.Apply(index, cmd)
	if c, ok := cmd.(raft.KVCommand); ok {
		r.mu.Lock()
		r.ops = append(r.ops, fmt.Sprintf("%s %s=%s", c.Op, c.Key, c.Value))
		r.mu.Unlock()
	}
}

func (r *recordingSM) Get(key string) (string, bool) { return r.kv.Get(key) }

func (r *recordingSM) Ops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func endpoints(nw *netsim.Network, n int) []msgnet.Endpoint {
	eps := make([]msgnet.Endpoint, n)
	for i := range eps {
		eps[i] = nw.Node(i)
	}
	return eps
}

const (
	testElection  = 30 * time.Millisecond
	testHeartbeat = 6 * time.Millisecond
)

// runSeeded boots nodes×shards, drives ops writes from one sequential
// client, waits until every replica of every shard has applied all the
// commands routed to it, and returns each (shard, node) replica's
// recorded command sequence. Optional modifiers adjust the cluster
// config (storage backend, fsync mode) before boot; the cluster is
// fully stopped before returning, so modifier-owned resources (files)
// are safe to close afterwards.
func runSeeded(t *testing.T, seed uint64, nodes, shards, ops int, mods ...func(*shard.Config)) [][][]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nw := netsim.New(nodes, netsim.WithSeed(seed), netsim.WithFIFO())
	sms := make([][]*recordingSM, shards)
	for s := range sms {
		sms[s] = make([]*recordingSM, nodes)
	}
	cfg := shard.Config{
		Endpoints:         endpoints(nw, nodes),
		Shards:            shards,
		RNG:               sim.NewRNG(seed),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine: func(node, s int) raft.StateMachine {
			sms[s][node] = &recordingSM{}
			return sms[s][node]
		},
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := shard.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForLeaders(ctx); err != nil {
		t.Fatal(err)
	}

	mix, err := workload.NewKVMix(workload.KVMixConfig{ReadRatio: 0, Keys: 200}, sim.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	routed := make([]int, shards)
	for i := 0; i < ops; i++ {
		op := mix.Next()
		s, _, err := c.Put(ctx, op.Key, op.Value)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		routed[s]++
	}
	// Quiesce: followers lag the leader by replication only; wait until
	// every replica has applied everything its shard committed.
	deadline := time.Now().Add(30 * time.Second)
	for s := 0; s < shards; s++ {
		for id := 0; id < nodes; id++ {
			for len(sms[s][id].Ops()) < routed[s] {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d node %d applied %d of %d", s, id, len(sms[s][id].Ops()), routed[s])
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	out := make([][][]string, shards)
	for s := range out {
		out[s] = make([][]string, nodes)
		for id := range out[s] {
			out[s][id] = sms[s][id].Ops()
		}
	}
	cancel()
	c.Wait()
	return out
}

// runSeededDisk is runSeeded on FileStorage: every (node, shard) replica
// persists to its own log under a temp dir, and every flush rides the
// node's shared SyncCoalescer (PR10).
func runSeededDisk(t *testing.T, seed uint64, nodes, shards, ops int) [][][]string {
	t.Helper()
	dir := t.TempDir()
	var (
		filesMu sync.Mutex
		files   []*raft.FileStorage
	)
	out := runSeeded(t, seed, nodes, shards, ops, func(cfg *shard.Config) {
		cfg.Storage = func(node, s int) (raft.Storage, error) {
			fs, err := raft.OpenFileStorage(fmt.Sprintf("%s/node-%d-shard-%d.log", dir, node, s))
			if err != nil {
				return nil, err
			}
			if _, err := fs.Load(); err != nil {
				_ = fs.Close()
				return nil, err
			}
			filesMu.Lock()
			files = append(files, fs)
			filesMu.Unlock()
			return fs, nil
		}
	})
	filesMu.Lock()
	defer filesMu.Unlock()
	for _, fs := range files {
		_ = fs.Close()
	}
	return out
}

// TestClusterDeterministicCommitSequences is the satellite's determinism
// check: the same seed yields byte-identical per-shard commit sequences
// across independent runs, and within one run every replica of a shard
// applies exactly the same sequence (the replication invariant).
func TestClusterDeterministicCommitSequences(t *testing.T) {
	const nodes, shards, ops = 3, 4, 120
	a := runSeeded(t, 42, nodes, shards, ops)
	b := runSeeded(t, 42, nodes, shards, ops)
	for s := 0; s < shards; s++ {
		for id := 1; id < nodes; id++ {
			if !reflect.DeepEqual(a[s][0], a[s][id]) {
				t.Fatalf("run A shard %d: node %d diverged from node 0", s, id)
			}
		}
		if !reflect.DeepEqual(a[s][0], b[s][0]) {
			t.Fatalf("shard %d commit sequence differs across same-seed runs:\nA: %v\nB: %v", s, a[s][0], b[s][0])
		}
		if len(a[s][0]) == 0 {
			t.Fatalf("shard %d committed nothing; router is funnelling", s)
		}
	}
}

// TestClusterCoalescedFsyncDeterminism extends the determinism check to
// the shared-disk group-commit path (PR10): with every replica on
// FileStorage and the node's flushes riding coalesced device barriers,
// two runs of one seed must yield identical per-shard commit sequences —
// barrier timing may move fsyncs between batches and rounds, but it must
// never reorder a shard's committed commands.
func TestClusterCoalescedFsyncDeterminism(t *testing.T) {
	const nodes, shards, ops = 3, 4, 80
	a := runSeededDisk(t, 42, nodes, shards, ops)
	b := runSeededDisk(t, 42, nodes, shards, ops)
	for s := 0; s < shards; s++ {
		for id := 1; id < nodes; id++ {
			if !reflect.DeepEqual(a[s][0], a[s][id]) {
				t.Fatalf("run A shard %d: node %d diverged from node 0", s, id)
			}
		}
		if !reflect.DeepEqual(a[s][0], b[s][0]) {
			t.Fatalf("shard %d commit sequence differs across same-seed runs:\nA: %v\nB: %v", s, a[s][0], b[s][0])
		}
		if len(a[s][0]) == 0 {
			t.Fatalf("shard %d committed nothing; router is funnelling", s)
		}
	}
}

// TestClusterLeaderPlacementSpread pins the boot placement: with more
// shards than nodes, leadership lands on at least two distinct nodes
// (the acceptance bar), normally all three.
func TestClusterLeaderPlacementSpread(t *testing.T) {
	const nodes, shards = 3, 4
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nw := netsim.New(nodes, netsim.WithSeed(7), netsim.WithFIFO())
	reg := metrics.NewRegistry()
	c, err := shard.NewCluster(shard.Config{
		Endpoints:         endpoints(nw, nodes),
		Shards:            shards,
		RNG:               sim.NewRNG(7),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForLeaders(ctx); err != nil {
		t.Fatal(err)
	}
	// The watcher table trails raft status by one event delivery, so a
	// win WaitForLeaders already saw may not be in it yet.
	deadline := time.Now().Add(10 * time.Second)
	for c.LeaderSpread() < 2 || slices.Contains(c.LeaderPlacement(), -1) {
		if time.Now().After(deadline) {
			t.Fatalf("leader spread %d, placement %v", c.LeaderSpread(), c.LeaderPlacement())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The watcher table and the gauges tell the same story.
	placement := c.LeaderPlacement()
	for s, node := range placement {
		if node < 0 {
			t.Fatalf("shard %d has no recorded leader: %v", s, placement)
		}
		g := reg.Gauge(metrics.Label("shard_leader", "shard", fmt.Sprint(s)))
		if got := int(g.Value()); got != node {
			t.Fatalf("shard %d gauge says node %d, table says %d", s, got, node)
		}
	}
}

// TestClusterMultiShardSoak is the -race soak: concurrent clients drive
// a mixed read/write workload across every shard, then the test checks
// convergence (every replica of a shard holds the same data) and shard
// isolation (replicas hold only keys their shard owns).
func TestClusterMultiShardSoak(t *testing.T) {
	const nodes, shards, clients, opsPerClient = 3, 4, 4, 60
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nw := netsim.New(nodes, netsim.WithSeed(11), netsim.WithFIFO())
	sms := make([][]*raft.KVStore, shards)
	for s := range sms {
		sms[s] = make([]*raft.KVStore, nodes)
	}
	c, err := shard.NewCluster(shard.Config{
		Endpoints:         endpoints(nw, nodes),
		Shards:            shards,
		RNG:               sim.NewRNG(11),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		LeaseDuration:     testElection,
		ReadMode:          raft.ReadLinearizable,
		StateMachine: func(node, s int) raft.StateMachine {
			sms[s][node] = &raft.KVStore{}
			return sms[s][node]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForLeaders(ctx); err != nil {
		t.Fatal(err)
	}

	fam, err := workload.NewKVMixFamily(workload.KVMixConfig{ReadRatio: 0.3, Keys: 128})
	if err != nil {
		t.Fatal(err)
	}
	root := sim.NewRNG(12)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			mix := fam.Instance(root.Stream('w', uint64(cl)))
			for i := 0; i < opsPerClient; i++ {
				op := mix.Next()
				if op.Read {
					if _, _, err := c.Get(ctx, op.Key); err != nil {
						errs <- fmt.Errorf("client %d get: %w", cl, err)
						return
					}
					continue
				}
				// Per-client value prefix keeps writes globally unique.
				if _, _, err := c.Put(ctx, op.Key, fmt.Sprintf("c%d-%s", cl, op.Value)); err != nil {
					errs <- fmt.Errorf("client %d put: %w", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Convergence: every replica of a shard ends with identical contents.
	desc := c.Descriptor()
	deadline := time.Now().Add(30 * time.Second)
	for s := 0; s < shards; s++ {
		for {
			if snapshotsAgree(sms[s]) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d replicas did not converge", s)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Isolation: a replica holds only keys its shard owns.
		for id := 0; id < nodes; id++ {
			for _, kv := range sms[s][id].Snapshot() {
				key := kv[:len("k000000")]
				if got := desc.ShardOf(key); got != s {
					t.Fatalf("shard %d node %d holds key %q owned by shard %d", s, id, key, got)
				}
			}
		}
	}
}

// newSimCluster builds a nodes×shards cluster over a FIFO netsim with no
// storage, not yet started.
func newSimCluster(t *testing.T, seed uint64, nodes, shards int) (*shard.Cluster, *netsim.Network) {
	t.Helper()
	nw := netsim.New(nodes, netsim.WithSeed(seed), netsim.WithFIFO())
	c, err := shard.NewCluster(shard.Config{
		Endpoints:         endpoints(nw, nodes),
		Shards:            shards,
		RNG:               sim.NewRNG(seed),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, nw
}

// TestClusterMisuse pins the errors for calls out of order: each returns
// an error instead of panicking or hanging.
func TestClusterMisuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start bool // Start the cluster before the call
		call  func(*shard.Cluster, context.Context) error
	}{
		{"WaitForLeaders before Start", false, (*shard.Cluster).WaitForLeaders},
		{"Start twice", true, (*shard.Cluster).Start},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			c, nw := newSimCluster(t, 3, 3, 2)
			defer func() {
				cancel()
				c.Wait()
				nw.Close()
			}()
			if tc.start {
				if err := c.Start(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.call(c, ctx); err == nil {
				t.Fatalf("%s returned nil", tc.name)
			}
		})
	}
}

// TestWaitForLeadersReturnsAtTheElection pins the bring-up wait to the
// election: over netsim with no storage the boot campaign wins in tens of
// microseconds, so the median time from Start returning to WaitForLeaders
// returning stays far under a millisecond. A wait that sleeps or polls
// on a 1 ms clock cannot pass.
func TestWaitForLeadersReturnsAtTheElection(t *testing.T) {
	const bringUps, nodes = 20, 3
	waits := make([]time.Duration, bringUps)
	for i := range waits {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c, nw := newSimCluster(t, uint64(i+1), nodes, 1)
		if err := c.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		err := c.WaitForLeaders(ctx)
		waits[i] = time.Since(t0)
		cancel()
		c.Wait()
		nw.Close()
		if err != nil {
			t.Fatalf("bring-up %d: %v", i, err)
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	med := waits[bringUps/2]
	if med >= 500*time.Microsecond {
		t.Fatalf("median leader wait %v over %d bring-ups (want < 500µs); sorted: %v", med, bringUps, waits)
	}
	t.Logf("median leader wait %v over %d bring-ups", med, bringUps)
}

// TestWaitForLeadersSeesSameNodeWinAgain has shard 0's leader campaign
// and win again, then waits: the wait sees the campaigner as a candidate
// and must be woken by its second win, which changes no placement.
func TestWaitForLeadersSeesSameNodeWinAgain(t *testing.T) {
	const nodes, rounds = 3, 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, nw := newSimCluster(t, 5, nodes, 1)
	defer nw.Close()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		c.Wait()
	}()
	for r := 0; r < rounds; r++ {
		if err := c.WaitForLeaders(ctx); err != nil {
			t.Fatal(err)
		}
		leader := -1
		for id, nd := range c.Group(0).Nodes {
			if nd.Status().State == raft.Leader {
				leader = id
			}
		}
		if leader < 0 {
			continue // lost between the wait and the scan; the next round waits again
		}
		c.Group(0).Nodes[leader].Campaign(nil)
		wctx, wcancel := context.WithTimeout(ctx, 2*time.Second)
		err := c.WaitForLeaders(wctx)
		wcancel()
		if err != nil {
			t.Fatalf("round %d: after node %d campaigned: %v", r, leader, err)
		}
	}
}

func snapshotsAgree(stores []*raft.KVStore) bool {
	want := stores[0].Snapshot()
	for _, st := range stores[1:] {
		if !reflect.DeepEqual(want, st.Snapshot()) {
			return false
		}
	}
	return true
}

// TestShardLabelSeparatesGroups: on one registry, each group's raft_*
// series carry its shard label, so two groups' commit indexes on a node
// are two gauges, each equal to its own group's.
func TestShardLabelSeparatesGroups(t *testing.T) {
	const nodes, shards = 3, 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	nw := netsim.New(nodes, netsim.WithSeed(41), netsim.WithFIFO())
	defer nw.Close()
	c, err := shard.NewCluster(shard.Config{
		Endpoints:         endpoints(nw, nodes),
		Shards:            shards,
		RNG:               sim.NewRNG(41),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		c.Wait()
	}()
	if err := c.WaitForLeaders(ctx); err != nil {
		t.Fatal(err)
	}
	// Shard s takes 3 + 4s writes, so the groups' commit indexes differ.
	for i, puts := 0, [shards]int{}; puts[0] < 3 || puts[1] < 7; i++ {
		key := fmt.Sprintf("k%d", i)
		s := c.ShardOf(key)
		if puts[s] == 3+4*s {
			continue
		}
		if _, _, err := c.Put(ctx, key, "v"); err != nil {
			t.Fatal(err)
		}
		puts[s]++
	}
	gauge := func(node, s int) int64 {
		return reg.Gauge(metrics.Label("raft_commit_index", "node", fmt.Sprint(node), "shard", fmt.Sprint(s))).Value()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		agree, leaderIndex := true, [shards]int{}
		for s := 0; s < shards; s++ {
			for node, nd := range c.Group(s).Nodes {
				st := nd.Status()
				if gauge(node, s) != int64(st.CommitIndex) {
					agree = false
				}
				if st.State == raft.Leader {
					leaderIndex[s] = st.CommitIndex
				}
			}
		}
		if agree && leaderIndex[0] != leaderIndex[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit-index gauges never matched their groups: leaders at %v, gauges %d/%d/%d and %d/%d/%d",
				leaderIndex, gauge(0, 0), gauge(1, 0), gauge(2, 0), gauge(0, 1), gauge(1, 1), gauge(2, 1))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := reg.Snapshot().Gauges[metrics.Label("raft_commit_index", "node", "0")]; ok {
		t.Fatal("a group registered an unlabeled raft_commit_index")
	}
}
