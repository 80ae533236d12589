package main

// surface.go is the only file in this package that imports ooc/internal.
// It builds the cluster the way the shipped binaries do (default
// raft.Config timings, pipelined write path, per-node sync coalescer,
// binary codec, compaction off), wraps the three seams the traced pass
// times, reads the program's own counters, and hosts the microbench
// bodies. Nothing here sets a knob the ROADMAP plans to delete.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"ooc/internal/checker"
	"ooc/internal/codec"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

// RNG is the repo's seeded generator; -seed reaches only instances of it
// owned by the load generator.
type RNG = sim.RNG

func newRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// clusterSeed fixes the program's own randomness (election timers,
// client jitter, netsim delivery order) for every run and every -seed.
const clusterSeed = 0x0c5eed

// clusterSpec says which of the program's substrates a workload runs on.
type clusterSpec struct {
	nodes, shards int
	tcp           bool   // loopback TCP + FileStorage; false: netsim, no Storage
	dir           string // WAL directory (tcp only)
	probe         *probe // nil: no wrappers are installed at all
}

// cluster is one running in-process deployment and implements kv.
type cluster struct {
	spec   clusterSpec
	sc     *shard.Cluster
	cancel context.CancelFunc
	trs    []*transport.Transport
	nw     *netsim.Network
	reg    *metrics.Registry
	files  []*raft.FileStorage
	paths  [][]string // [node][shard]
}

// startCluster listens, opens and loads the WALs, starts every replica
// and returns once each group has a leader.
func startCluster(spec clusterSpec) (*cluster, error) {
	c := &cluster{spec: spec, paths: make([][]string, spec.nodes)}
	if spec.probe != nil {
		c.reg = metrics.NewRegistry()
	}
	eps := make([]msgnet.Endpoint, spec.nodes)
	if spec.tcp {
		trs, err := transport.NewLocalCluster(spec.nodes, transport.WithMetrics(c.reg))
		if err != nil {
			return nil, err
		}
		c.trs = trs
		for i, tr := range trs {
			eps[i] = tr
		}
	} else {
		c.nw = netsim.New(spec.nodes, netsim.WithSeed(clusterSeed), netsim.WithMetrics(c.reg))
		for i := range eps {
			eps[i] = c.nw.Node(i)
		}
	}
	if p := spec.probe; p != nil {
		for i, ep := range eps {
			eps[i] = &tracedEndpoint{Endpoint: ep, p: p, nc: &p.nodes[i], node: int8(i)}
		}
	}
	cfg := shard.Config{Endpoints: eps, Shards: spec.shards, RNG: sim.NewRNG(clusterSeed)}
	if spec.tcp {
		cfg.Storage = c.openStorage
	}
	if p := spec.probe; p != nil {
		cfg.StateMachine = func(node, s int) raft.StateMachine {
			return &tracedKV{KVStore: &raft.KVStore{}, p: p, rc: p.replica(node, s), node: int8(node), shard: int8(s)}
		}
	}
	sc, err := shard.NewCluster(cfg)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.sc = sc
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	if err := sc.Start(ctx); err != nil {
		c.stop()
		return nil, err
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := sc.WaitForLeaders(wctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) openStorage(node, s int) (raft.Storage, error) {
	path := filepath.Join(c.spec.dir, fmt.Sprintf("n%d-s%d.wal", node, s))
	fs, err := raft.OpenFileStorage(path)
	if err != nil {
		return nil, err
	}
	if _, err := fs.Load(); err != nil {
		_ = fs.Close()
		return nil, err
	}
	c.files = append(c.files, fs)
	c.paths[node] = append(c.paths[node], path)
	if p := c.spec.probe; p != nil {
		return &tracedStorage{FileStorage: fs, p: p, rc: p.replica(node, s), node: int8(node), shard: int8(s)}, nil
	}
	return fs, nil
}

// stop shuts the cluster down and returns once every goroutine it
// started has exited: nodes first (their persist workers write until
// Done), then the WAL handles, then the sockets.
func (c *cluster) stop() {
	if c.cancel != nil {
		c.cancel()
		c.sc.Wait()
	}
	for _, fs := range c.files {
		_ = fs.Close()
	}
	for _, tr := range c.trs {
		_ = tr.Close()
	}
	if c.nw != nil {
		c.nw.Close()
	}
}

func (c *cluster) Put(ctx context.Context, key, value string) error {
	_, _, err := c.sc.Put(ctx, key, value)
	return err
}

func (c *cluster) Get(ctx context.Context, key string) (string, bool, error) {
	return c.sc.GetWith(ctx, key, raft.ReadLinearizable)
}

func (c *cluster) shardOf(key string) int { return c.sc.ShardOf(key) }

// counters are the program's own always-on totals, summed over every
// replica; the harness differences two snapshots.
type counters struct {
	fsyncs                              int64
	syncRequests, syncBarriers          int64
	readLease, readIndex, readForwarded int64
	wireBytes, netsimSends              int64 // traced pass only (metrics registry)
}

// addGrowth adds what grew between two snapshots.
func (k *counters) addGrowth(from, to counters) {
	k.fsyncs += to.fsyncs - from.fsyncs
	k.syncRequests += to.syncRequests - from.syncRequests
	k.syncBarriers += to.syncBarriers - from.syncBarriers
	k.readLease += to.readLease - from.readLease
	k.readIndex += to.readIndex - from.readIndex
	k.readForwarded += to.readForwarded - from.readForwarded
	k.wireBytes += to.wireBytes - from.wireBytes
	k.netsimSends += to.netsimSends - from.netsimSends
}

func (c *cluster) counters() counters {
	var k counters
	for _, fs := range c.files {
		k.fsyncs += fs.Syncs()
	}
	for n := 0; n < c.spec.nodes; n++ {
		if sy := c.sc.Syncer(n); sy != nil {
			k.syncRequests += sy.Requests()
			k.syncBarriers += sy.Barriers()
		}
	}
	for s := 0; s < c.spec.shards; s++ {
		for _, nd := range c.sc.Group(s).Nodes {
			lease, index, _, fwd := nd.ReadStats()
			k.readLease += lease
			k.readIndex += index
			k.readForwarded += fwd
		}
	}
	if c.reg != nil {
		k.wireBytes = c.reg.Counter("codec_encode_bytes_total").Value()
		k.netsimSends = c.reg.Counter("netsim_sends_total").Value()
	}
	return k
}

// leaders reports each shard's current leader node (-1: none) and the
// sum over shards of the highest term any replica is in. The term sum
// moving between two calls means an election ran in between.
func (c *cluster) leaders() (leader []int, termSum int) {
	leader = make([]int, c.spec.shards)
	for s := range leader {
		leader[s] = -1
		top := 0
		for id, nd := range c.sc.Group(s).Nodes {
			st := nd.Status()
			if st.State == raft.Leader {
				leader[s] = id
			}
			if st.Term > top {
				top = st.Term
			}
		}
		termSum += top
	}
	return leader, termSum
}

// followerLag is the largest, over shards, of leader commit index minus
// the slowest follower's applied index.
func (c *cluster) followerLag() int {
	lag := 0
	for s := 0; s < c.spec.shards; s++ {
		commit, slowest := 0, -1
		for _, nd := range c.sc.Group(s).Nodes {
			st := nd.Status()
			if st.State == raft.Leader {
				commit = st.CommitIndex
			} else if slowest < 0 || st.LastApplied < slowest {
				slowest = st.LastApplied
			}
		}
		if slowest >= 0 && commit-slowest > lag {
			lag = commit - slowest
		}
	}
	return lag
}

func (c *cluster) walBytes() int64 {
	var total int64
	for _, node := range c.paths {
		for _, p := range node {
			if info, err := os.Stat(p); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// replicasAgree waits for followers to finish applying, then requires
// every shard's replicas to hold the identical key=value listing.
func (c *cluster) replicasAgree(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s := 0; s < c.spec.shards; s++ {
		for {
			var first []string
			same := true
			for n := 0; n < c.spec.nodes; n++ {
				snap := c.sc.Group(s).StateMachine(n).(interface{ Snapshot() []string }).Snapshot()
				if n == 0 {
					first = snap
				} else if !reflect.DeepEqual(first, snap) {
					same = false
				}
			}
			if same {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d: replica state machines still differ %v after drain", s, timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// writeID names one client write across WALs.
func writeID(client int, version uint64) uint64 { return uint64(client)<<48 | version }

// walReload is what reopening the WALs after the run found.
type walReload struct {
	nodes     map[uint64]uint8 // write id → bitmask of nodes whose WAL holds it
	node0Ns   int64            // OpenFileStorage + Load of node 0's files
	node0Ents int
}

// reloadWALs reopens every replica's WAL with a fresh FileStorage, the
// way a restarted node would. Call after stop.
func (c *cluster) reloadWALs() (walReload, error) {
	out := walReload{nodes: make(map[uint64]uint8)}
	for n, paths := range c.paths {
		for _, p := range paths {
			t0 := time.Now()
			fs, err := raft.OpenFileStorage(p)
			if err != nil {
				return out, err
			}
			st, err := fs.Load()
			_ = fs.Close()
			if err != nil {
				return out, fmt.Errorf("reload %s: %w", p, err)
			}
			if n == 0 {
				out.node0Ns += int64(time.Since(t0))
				out.node0Ents += len(st.Entries)
			}
			for _, e := range st.Entries {
				if kv, ok := e.Command.(raft.KVCommand); ok {
					if cl, ver, ok := valueIdentity(kv.Value); ok {
						out.nodes[writeID(cl, ver)] |= 1 << n
					}
				}
			}
		}
	}
	return out, nil
}

// onQuorum reports whether a write is in at least a majority of WALs.
func (w walReload) onQuorum(client int, version uint64, nodes int) bool {
	return bits.OnesCount8(w.nodes[writeID(client, version)]) > nodes/2
}

// checkLinearizable runs one client's history (its keys are its own)
// through the repo's register checker. Keys with a failed write are left
// out — whether such a write took effect is unknown — and the failure
// itself is already counted against the run.
func checkLinearizable(c *client) error {
	var skip map[uint8]bool
	for _, r := range c.recs {
		if r.failed && !r.read {
			if skip == nil {
				skip = make(map[uint8]bool)
			}
			skip[r.key] = true
		}
	}
	hist := make([]checker.RWOp, 0, len(c.recs))
	for _, r := range c.recs {
		if r.failed || skip[r.key] {
			continue
		}
		hist = append(hist, checker.RWOp{
			Read: r.read, Key: c.keys[r.key], Version: int64(r.version), Invoke: r.issued, Return: r.ret,
		})
	}
	if rep := checker.CheckRegisterLinearizable(hist); !rep.Ok() {
		return errors.New(rep.String())
	}
	return nil
}

// ---- the three wrappers of the traced pass ----

// commandRequest returns the request id of a sampled write's log entry.
func commandRequest(cmd any) (uint32, bool) {
	if kv, ok := cmd.(raft.KVCommand); ok {
		return valueRequest(kv.Value)
	}
	return 0, false
}

// tracedStorage times a replica's mutating storage calls. It embeds the
// FileStorage so SetSyncer, SyncDevice and LastBarrierWidth are promoted
// and the node still wires the shared coalescer through it.
type tracedStorage struct {
	*raft.FileStorage
	p           *probe
	rc          *replicaCounters
	node, shard int8
}

func (s *tracedStorage) SetState(term, votedFor int) error {
	if !s.p.on() {
		return s.FileStorage.SetState(term, votedFor)
	}
	t0 := s.p.now()
	err := s.FileStorage.SetState(term, votedFor)
	s.observe(t0, nil)
	return err
}

func (s *tracedStorage) TruncateAndAppend(prevIndex int, entries []raft.Entry) error {
	if !s.p.on() {
		return s.FileStorage.TruncateAndAppend(prevIndex, entries)
	}
	t0 := s.p.now()
	err := s.FileStorage.TruncateAndAppend(prevIndex, entries)
	s.observe(t0, []raft.LogMutation{{PrevIndex: prevIndex, Entries: entries}})
	return err
}

func (s *tracedStorage) AppendBatch(muts []raft.LogMutation) error {
	if !s.p.on() {
		return s.FileStorage.AppendBatch(muts)
	}
	t0 := s.p.now()
	err := s.FileStorage.AppendBatch(muts)
	s.observe(t0, muts)
	return err
}

func (s *tracedStorage) observe(t0 int64, muts []raft.LogMutation) {
	t1 := s.p.now()
	entries := 0
	for _, m := range muts {
		entries += len(m.Entries)
	}
	s.rc.appendCalls.Add(1)
	s.rc.appendBusyNs.Add(t1 - t0)
	for _, m := range muts {
		for _, e := range m.Entries {
			if req, ok := commandRequest(e.Command); ok {
				s.p.record(span{req: req, kind: spanStorage, node: s.node, shard: s.shard, entries: int32(entries), start: t0, end: t1})
			}
		}
	}
}

// tracedKV times a replica's Apply.
type tracedKV struct {
	*raft.KVStore
	p           *probe
	rc          *replicaCounters
	node, shard int8
}

func (k *tracedKV) Apply(index int, command any) {
	if !k.p.on() {
		k.KVStore.Apply(index, command)
		return
	}
	t0 := k.p.now()
	k.KVStore.Apply(index, command)
	t1 := k.p.now()
	k.rc.applyCalls.Add(1)
	k.rc.applyBusyNs.Add(t1 - t0)
	if req, ok := commandRequest(command); ok {
		k.p.record(span{req: req, kind: spanApply, node: k.node, shard: k.shard, start: t0, end: t1})
	}
}

// tracedEndpoint sits under a node's mux and times what the Raft main
// loops spend inside Send and Broadcast.
type tracedEndpoint struct {
	msgnet.Endpoint
	p    *probe
	nc   *nodeCounters
	node int8
}

func (e *tracedEndpoint) Send(to int, payload any) error {
	if !e.p.on() {
		return e.Endpoint.Send(to, payload)
	}
	t0 := e.p.now()
	err := e.Endpoint.Send(to, payload)
	e.observe(t0, payload, err)
	return err
}

func (e *tracedEndpoint) Broadcast(payload any) error {
	if !e.p.on() {
		return e.Endpoint.Broadcast(payload)
	}
	t0 := e.p.now()
	err := e.Endpoint.Broadcast(payload)
	e.observe(t0, payload, err)
	return err
}

func (e *tracedEndpoint) Recv(ctx context.Context) (msgnet.Message, error) {
	m, err := e.Endpoint.Recv(ctx)
	if err == nil && e.p.on() {
		e.nc.recvMsgs.Add(1)
	}
	return m, err
}

func (e *tracedEndpoint) observe(t0 int64, payload any, err error) {
	t1 := e.p.now()
	e.nc.sendCalls.Add(1)
	e.nc.sendBusyNs.Add(t1 - t0)
	if err != nil {
		e.nc.sendErrors.Add(1)
	}
	shardID := int8(-1)
	if tg, ok := payload.(msgnet.Tagged); ok {
		payload = tg.Payload
		for s := 0; s < e.p.shards; s++ {
			if tg.Channel == shard.ChannelName(s) {
				shardID = int8(s)
			}
		}
	}
	_, payload = msgnet.TraceOf(payload)
	ae, ok := payload.(raft.AppendEntries)
	if !ok || len(ae.Entries) == 0 {
		return
	}
	e.nc.appendMsgs.Add(1)
	e.nc.appendEntries.Add(int64(len(ae.Entries)))
	for _, en := range ae.Entries {
		if req, ok := commandRequest(en.Command); ok {
			e.p.record(span{req: req, kind: spanSend, node: e.node, shard: shardID, entries: int32(len(ae.Entries)), start: t0, end: t1})
		}
	}
}

// ---- microbench bodies: one call into one layer's public function ----

// microResults maps a per-layer metric name to its measured value.
type microResults map[string]float64

// benchEntries are n log entries holding writes shaped like the
// generator's.
func benchEntries(n int) []raft.Entry {
	c := newClient(0)
	es := make([]raft.Entry, n)
	for i := range es {
		c.version++
		es[i] = raft.Entry{Term: 1, Command: raft.KVCommand{Op: "set", Key: c.keys[i%keysPerClient], Value: c.value('m', 0, false)}}
	}
	return es
}

// runMicro runs the fixed-iteration microbenches. dir holds their files.
func runMicro(dir string) (microResults, error) {
	out := microResults{}

	// shard: Descriptor.ShardOf on the generator's keys, 4-shard map.
	desc := shard.SplitEven(4, shard.DefaultSlots)
	keys := newClient(0).keys
	sink := 0
	out["shard.route_ns"] = benchNs(5, 100_000, func(i int) { sink += desc.ShardOf(keys[i%keysPerClient]) })

	// raft: one client on a 1-node group over netsim with no storage —
	// main loop + apply + client per committed entry, nothing else.
	single, err := startCluster(clusterSpec{nodes: 1, shards: 1})
	if err != nil {
		return nil, fmt.Errorf("micro single-node: %w", err)
	}
	ctx := context.Background()
	cmd := benchEntries(1)[0].Command.(raft.KVCommand)
	var putErr error
	out["raft.single_node_commit_us"] = benchNs(5, 1000, func(int) {
		if err := single.Put(ctx, cmd.Key, cmd.Value); err != nil {
			putErr = err
		}
	}) / 1e3
	single.stop()
	if putErr != nil {
		return nil, fmt.Errorf("micro single-node: %w", putErr)
	}

	// storage: one AppendBatch of 1 and of 64 entries, fsync included.
	fs, err := raft.OpenFileStorage(filepath.Join(dir, "micro.wal"))
	if err != nil {
		return nil, err
	}
	var appendErr error
	prev := 0
	for _, n := range []int{1, 64} {
		es := benchEntries(n)
		out[fmt.Sprintf("storage.append%d_us", n)] = benchNs(5, 40, func(int) {
			if err := fs.AppendBatch([]raft.LogMutation{{PrevIndex: prev, Entries: es}}); err != nil {
				appendErr = err
			}
			prev += n
		}) / 1e3
	}
	_ = fs.Close()
	if appendErr != nil {
		return nil, fmt.Errorf("micro storage: %w", appendErr)
	}

	// syncer: SyncCoalescer.Sync on freshly dirtied real files, one
	// caller and four concurrent callers; ns per Sync as a caller sees it.
	for _, ways := range []int{1, 4} {
		ns, err := benchSyncer(dir, ways)
		if err != nil {
			return nil, fmt.Errorf("micro syncer: %w", err)
		}
		out[fmt.Sprintf("syncer.sync_ns_%dway", ways)] = ns
	}

	// mux: tagged send on node 0's channel → Recv on node 1's channel,
	// over an in-memory parent.
	mctx, mcancel := context.WithCancel(ctx)
	nw := netsim.New(2, netsim.WithSeed(clusterSeed))
	ch0 := msgnet.NewMux(mctx, nw.Node(0)).Channel("m")
	ch1 := msgnet.NewMux(mctx, nw.Node(1)).Channel("m")
	var muxErr error
	reply := raft.AppendEntriesReply{Term: 1, Success: true}
	out["mux.route_ns"] = benchNs(5, 20_000, func(int) {
		if err := ch0.Send(1, reply); err != nil {
			muxErr = err
		}
		if _, err := ch1.Recv(mctx); err != nil {
			muxErr = err
		}
	})
	mcancel()
	nw.Close()
	if muxErr != nil {
		return nil, fmt.Errorf("micro mux: %w", muxErr)
	}

	// transport: loopback send → peer Recv → reply → Recv.
	trs, err := transport.NewLocalCluster(2)
	if err != nil {
		return nil, err
	}
	var rttErr error
	pingPong := func(int) {
		for hop := 0; hop < 2; hop++ {
			if err := trs[hop].Send(1-hop, reply); err != nil {
				rttErr = err
			}
			if _, err := trs[1-hop].Recv(ctx); err != nil {
				rttErr = err
			}
		}
	}
	for i := 0; i < 20; i++ { // dial both directions before timing
		pingPong(i)
	}
	out["transport.rtt_us"] = benchNs(5, 1000, pingPong) / 1e3
	for _, tr := range trs {
		_ = tr.Close()
	}
	if rttErr != nil {
		return nil, fmt.Errorf("micro transport: %w", rttErr)
	}

	// codec: a 16-entry AppendEntries of this benchmark's commands, as it
	// rides the wire inside the mux tag.
	const frameEntries = 16
	var msg any = msgnet.Tagged{Channel: shard.ChannelName(0), Payload: raft.AppendEntries{
		Term: 1, PrevLogIndex: 10, PrevLogTerm: 1, Entries: benchEntries(frameEntries), LeaderCommit: 10,
	}}
	frame, err := codec.Append(nil, msg)
	if err != nil {
		return nil, fmt.Errorf("micro codec: %w", err)
	}
	var codecErr error
	buf := make([]byte, 0, 2*len(frame))
	encNs, encAllocs := benchNsAllocs(5, 5000, func(int) {
		if buf, err = codec.Append(buf[:0], msg); err != nil {
			codecErr = err
		}
	})
	var dec codec.Decoder
	decNs, decAllocs := benchNsAllocs(5, 5000, func(int) {
		if _, err := dec.Decode(frame); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("micro codec: %w", codecErr)
	}
	out["codec.encode_ns_per_entry"] = encNs / frameEntries
	out["codec.decode_ns_per_entry"] = decNs / frameEntries
	out["codec.encode_allocs"] = encAllocs
	out["codec.decode_allocs"] = decAllocs
	out["codec.bytes_per_entry"] = float64(len(frame)) / frameEntries

	// apply: KVStore.Apply of pre-boxed set commands.
	store := &raft.KVStore{}
	cmds := benchEntries(1024)
	out["apply.ns_per_op"] = benchNs(5, 100_000, func(i int) { store.Apply(i+1, cmds[i%len(cmds)].Command) })

	if sink < 0 {
		return nil, errors.New("unreachable") // keeps sink live
	}
	return out, nil
}

// dirtyFile is a SyncTarget over a plain file the bench writes to.
type dirtyFile struct{ f *os.File }

func (d dirtyFile) SyncDevice() error { return d.f.Sync() }

// benchSyncer has `ways` goroutines each dirty their own file and Sync
// it through one shared coalescer, and returns the median wall ns per
// Sync call as one caller sees it.
func benchSyncer(dir string, ways int) (float64, error) {
	const iters = 40
	sy := raft.NewSyncCoalescer(raft.SyncerConfig{})
	files := make([]dirtyFile, ways)
	for i := range files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sync-%d-%d", ways, i)))
		if err != nil {
			return 0, err
		}
		defer func() { _ = f.Close() }()
		files[i] = dirtyFile{f}
	}
	block := make([]byte, valueLen)
	var mu sync.Mutex
	var firstErr error
	ns := benchNs(5, 1, func(int) {
		var wg sync.WaitGroup
		for _, d := range files {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					_, err := d.f.Write(block)
					if err == nil {
						_, err = sy.Sync(d)
					}
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	return ns / iters, firstErr
}
