package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
	"ooc/internal/trace"
)

// Config configures a Cluster.
type Config struct {
	// Endpoints are the per-processor network handles — netsim nodes or
	// TCP transports. Their count fixes the cluster size; every shard's
	// group replicates across all of them.
	Endpoints []msgnet.Endpoint
	// Shards is the group count (default 1); the shard map is
	// SplitEven(Shards, DefaultSlots).
	Shards int
	// RNG seeds every group's election timers and client jitter;
	// required, and the reason two same-seeded clusters elect the same
	// leaders.
	RNG *sim.RNG
	// Raft timing knobs, passed through to every node. Zero values take
	// the raft.Config defaults.
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	LeaseDuration     time.Duration
	// ReadMode is the default consistency Get uses (zero =
	// ReadLinearizable).
	ReadMode raft.ReadConsistency
	// Storage, if non-nil, supplies each (node, shard) replica's
	// persistence; nil runs every group unpersisted. Each node runs one
	// raft.SyncCoalescer under all of its groups, so K concurrent group
	// flushes share one barrier: Start wires it into every store that
	// takes one (SetSyncer, as FileStorage does).
	Storage func(node, shard int) (raft.Storage, error)
	// DeviceLatency, when > 0, models each node's shared storage device:
	// every durability barrier on the node — from any group — pays this
	// latency through one raft.Disk, and concurrent barriers serialize
	// there. This is the E16 fixture (one disk per node, not one per
	// group). Zero models no device.
	DeviceLatency time.Duration
	// Recorder, if non-nil, has every replica's storage emit one trace
	// note per durability flush ("fsync <channel> entries=E width=W"),
	// which ooctrace folds into per-shard fsyncs_per_op and
	// barrier-width columns in the mux-channel table. Only meaningful
	// with Storage set.
	Recorder *trace.Recorder
	// StateMachine supplies each (node, shard) replica's state machine;
	// nil means a fresh raft.KVStore. The front end requires whatever it
	// returns to implement raft.KVGetter for reads.
	StateMachine func(node, shard int) raft.StateMachine
	// Metrics, if non-nil, receives the cluster-level telemetry: leader
	// placement gauges and move counters per shard (the label
	// dimension), rebalance nudges, routed ops per shard, and mux
	// backlog drops.
	Metrics *metrics.Registry
	// ShardMetrics, if non-nil, supplies a private registry per shard;
	// the shard's raft nodes are instrumented against it, so benchmark
	// tables can snapshot each group's internals separately (the raft_*
	// metric names carry no shard label — separate registries keep the
	// attribution clean).
	ShardMetrics func(shard int) *metrics.Registry
	// Tracer, if non-nil, samples per-request spans across the whole
	// stack: every group's client opens spans (raft.WithClientTracer)
	// and every raft node attributes queue/fsync/network/apply phases
	// into them (raft.Config.Tracer).
	Tracer *rtrace.Tracer
	// Flights, if non-nil, holds one flight recorder per node (indexed
	// like Endpoints; short or nil-holed slices are fine). Each node's
	// raft replicas record into it, and its mux's backlog drops trigger
	// an EvMuxDrop dump with the channel and sender attached.
	Flights []*rtrace.Flight
}

// Group is one shard's consensus group: a raft node per processor plus
// the client the front end routes through.
type Group struct {
	Shard  int
	Nodes  []*raft.Node
	Client *raft.Client
	sms    []raft.StateMachine
}

// StateMachine returns the group's replica state machine on one node.
func (g *Group) StateMachine(node int) raft.StateMachine { return g.sms[node] }

// clusterMetrics is the per-shard label dimension over the cluster
// registry. Instruments are registered once here; nil receivers (no
// registry) discard.
type clusterMetrics struct {
	leader   []*metrics.Gauge   // shard_leader{shard=s}: node id, -1 unknown
	moves    []*metrics.Counter // shard_leader_moves_total{shard=s}
	puts     []*metrics.Counter // shard_puts_total{shard=s}
	gets     []*metrics.Counter // shard_gets_total{shard=s}
	deletes  []*metrics.Counter // shard_deletes_total{shard=s}
	rebal    *metrics.Counter   // shard_rebalance_nudges_total
	misroute *metrics.Counter   // shard_router_rejects_total (defensive)
}

func newClusterMetrics(reg *metrics.Registry, shards int) *clusterMetrics {
	cm := &clusterMetrics{
		leader:  make([]*metrics.Gauge, shards),
		moves:   make([]*metrics.Counter, shards),
		puts:    make([]*metrics.Counter, shards),
		gets:    make([]*metrics.Counter, shards),
		deletes: make([]*metrics.Counter, shards),
	}
	if reg == nil {
		return cm
	}
	for s := 0; s < shards; s++ {
		id := strconv.Itoa(s)
		cm.leader[s] = reg.Gauge(metrics.Label("shard_leader", "shard", id))
		cm.leader[s].Set(-1)
		cm.moves[s] = reg.Counter(metrics.Label("shard_leader_moves_total", "shard", id))
		cm.puts[s] = reg.Counter(metrics.Label("shard_ops_total", "shard", id, "op", "put"))
		cm.gets[s] = reg.Counter(metrics.Label("shard_ops_total", "shard", id, "op", "get"))
		cm.deletes[s] = reg.Counter(metrics.Label("shard_ops_total", "shard", id, "op", "delete"))
	}
	cm.rebal = reg.Counter("shard_rebalance_nudges_total")
	cm.misroute = reg.Counter("shard_router_rejects_total")
	return cm
}

// Cluster is S consensus groups over N processors, with a router in
// front. Build with NewCluster, run with Start, then use the KV surface
// (Put/Delete/Get) or reach into Group for protocol-level access.
type Cluster struct {
	cfg     Config
	desc    Descriptor
	n       int
	muxes   []*msgnet.Mux
	groups  []*Group
	met     *clusterMetrics
	syncers []*raft.SyncCoalescer // one per node when Storage is set

	mu      sync.Mutex
	leader  []int // current leader node per shard; -1 unknown
	leads   []int // shards currently led, per node
	nudges  int   // rebalance campaigns requested
	started bool
	running []*raft.Node // nodes Start actually launched, for Wait
	// elected is closed and replaced on every EventBecameLeader a
	// watcher sees, a node winning again included; WaitForLeaders parks
	// on it. Nil until Start has built every group.
	elected chan struct{}
}

// NewCluster validates cfg and sizes the cluster; Start runs it.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("shard: Config.Endpoints is required")
	}
	if cfg.RNG == nil {
		return nil, errors.New("shard: Config.RNG is required")
	}
	desc := SplitEven(max(cfg.Shards, 1), DefaultSlots)
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	shards := desc.NumShards()
	c := &Cluster{
		cfg:    cfg,
		desc:   desc,
		n:      len(cfg.Endpoints),
		groups: make([]*Group, shards),
		met:    newClusterMetrics(cfg.Metrics, shards),
		leader: make([]int, shards),
		leads:  make([]int, len(cfg.Endpoints)),
	}
	for s := range c.leader {
		c.leader[s] = -1
	}
	return c, nil
}

// Descriptor returns the cluster's shard map.
func (c *Cluster) Descriptor() Descriptor { return c.desc }

// NumShards returns the group count.
func (c *Cluster) NumShards() int { return len(c.groups) }

// NumNodes returns the processor count.
func (c *Cluster) NumNodes() int { return c.n }

// ShardOf routes a key to its owning shard.
func (c *Cluster) ShardOf(key string) int { return c.desc.ShardOf(key) }

// Group returns shard s's consensus group (valid after Start).
func (c *Cluster) Group(s int) *Group { return c.groups[s] }

// PreferredLeader is the boot placement hint: shard s's leadership
// belongs on node s mod N, spreading the write load (each leader owns
// its group's fsync queue and outbound replication) round-robin across
// processors.
func (c *Cluster) PreferredLeader(s int) int { return s % c.n }

// Start builds one mux per processor, one raft node per (processor,
// shard) on the shard's channel, starts everything, and nudges each
// shard's preferred leader to campaign. It returns once all nodes are
// running; leadership settles asynchronously (WaitForLeaders).
func (c *Cluster) Start(ctx context.Context) error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return errors.New("shard: cluster already started")
	}
	c.started = true
	c.mu.Unlock()

	c.muxes = make([]*msgnet.Mux, c.n)
	for id := 0; id < c.n; id++ {
		opts := []msgnet.MuxOption{msgnet.WithMuxMetrics(c.cfg.Metrics)}
		if fl := c.flightFor(id); fl != nil {
			// A backlog drop is an anomaly worth a dump: record which
			// channel lost a message and who sent it.
			opts = append(opts, msgnet.WithMuxDropHook(func(channel string, from int) {
				fl.Trigger(rtrace.EvMuxDrop, 0, int64(from), 0, channel)
			}))
		}
		c.muxes[id] = msgnet.NewMux(ctx, c.cfg.Endpoints[id], opts...)
	}
	if c.cfg.Storage != nil {
		// One syncer per node, shared by all of the node's groups: this
		// is the whole point of the shard-layer wiring — K groups, one
		// durability pipeline. Each node also gets its own Disk: devices
		// are per-node, so barriers on different nodes never serialize
		// against each other.
		c.syncers = make([]*raft.SyncCoalescer, c.n)
		for id := 0; id < c.n; id++ {
			c.syncers[id] = raft.NewSyncCoalescer(raft.SyncerConfig{
				Disk:    raft.NewDisk(c.cfg.DeviceLatency),
				Metrics: c.cfg.Metrics,
				Node:    id,
			})
		}
	}
	for s := range c.groups {
		g := &Group{
			Shard: s,
			Nodes: make([]*raft.Node, c.n),
			sms:   make([]raft.StateMachine, c.n),
		}
		var reg *metrics.Registry
		if c.cfg.ShardMetrics != nil {
			reg = c.cfg.ShardMetrics(s)
		}
		for id := 0; id < c.n; id++ {
			sm := raft.StateMachine(nil)
			if c.cfg.StateMachine != nil {
				sm = c.cfg.StateMachine(id, s)
			}
			if sm == nil {
				sm = &raft.KVStore{}
			}
			g.sms[id] = sm
			var store raft.Storage
			if c.cfg.Storage != nil {
				st, err := c.cfg.Storage(id, s)
				if err != nil {
					return fmt.Errorf("shard %d node %d storage: %w", s, id, err)
				}
				if ss, ok := st.(interface{ SetSyncer(*raft.SyncCoalescer) }); ok {
					ss.SetSyncer(c.syncers[id])
				}
				store = st
				if store != nil && c.cfg.Recorder != nil {
					store = &noteStorage{inner: store, rec: c.cfg.Recorder, node: id, channel: ChannelName(s)}
				}
			}
			node, err := raft.NewNode(raft.Config{
				ID:                id,
				Endpoint:          c.muxes[id].Channel(ChannelName(s)),
				RNG:               c.cfg.RNG.Stream(nodeRole+uint64(s), uint64(id)),
				ElectionTimeout:   c.cfg.ElectionTimeout,
				HeartbeatInterval: c.cfg.HeartbeatInterval,
				LeaseDuration:     c.cfg.LeaseDuration,
				StateMachine:      sm,
				Storage:           store,
				Metrics:           reg,
				Tracer:            c.cfg.Tracer,
				Flight:            c.flightFor(id),
			})
			if err != nil {
				return fmt.Errorf("shard %d node %d: %w", s, id, err)
			}
			g.Nodes[id] = node
		}
		client, err := raft.NewClient(g.Nodes,
			raft.WithClientRNG(c.cfg.RNG.Stream(clientRole, uint64(s))),
			raft.WithReadConsistency(c.cfg.ReadMode),
			raft.WithClientTracer(c.cfg.Tracer))
		if err != nil {
			return fmt.Errorf("shard %d client: %w", s, err)
		}
		g.Client = client
		c.groups[s] = g
	}
	c.mu.Lock()
	c.elected = make(chan struct{})
	c.mu.Unlock()
	// Subscribe the placement watchers before starting any node so no
	// EventBecameLeader is missed, then start and place.
	for _, g := range c.groups {
		for id, node := range g.Nodes {
			go c.watchLeadership(ctx, g.Shard, id, node.Subscribe(raft.EventBecameLeader))
		}
	}
	for _, g := range c.groups {
		for _, node := range g.Nodes {
			node.Start(ctx)
			c.running = append(c.running, node)
		}
	}
	for _, g := range c.groups {
		g.Nodes[c.PreferredLeader(g.Shard)].Campaign(nil)
	}
	return nil
}

// Wait blocks until every node Start launched has fully stopped: main
// loop exited, persist and apply workers drained. Callers that own the
// groups' Storage (Config.Storage) must cancel the Start context and
// Wait before closing it — a pipelined node's persist worker writes
// until its Done() fires. Call after Start has returned.
func (c *Cluster) Wait() {
	for _, nd := range c.running {
		<-nd.Done()
	}
}

// Syncer returns node id's sync coalescer — the per-node durability
// pipeline all of the node's groups share. Nil when the cluster runs
// without Storage (valid after Start).
func (c *Cluster) Syncer(id int) *raft.SyncCoalescer {
	if id < len(c.syncers) {
		return c.syncers[id]
	}
	return nil
}

// flightFor returns node id's flight recorder, nil when none was
// configured for it.
func (c *Cluster) flightFor(id int) *rtrace.Flight {
	if id < len(c.cfg.Flights) {
		return c.cfg.Flights[id]
	}
	return nil
}

// RNG stream roles: keep the per-(shard,node) protocol streams, the
// per-shard client streams, and everything the caller forks from the
// same root in disjoint subspaces.
const (
	nodeRole   uint64 = 1 << 32
	clientRole uint64 = 2 << 32
)

// watchLeadership follows one replica's EventBecameLeader stream and
// feeds leader transitions into the placement table.
func (c *Cluster) watchLeadership(ctx context.Context, shard, node int, sub *raft.Subscription) {
	for {
		if _, err := sub.Next(ctx); err != nil {
			return
		}
		c.noteLeader(shard, node)
	}
}

// noteLeader records a leader change and runs the rebalance check: if
// the new leader's node now leads more than its fair share of shards
// while the shard's preferred node leads less than its own, nudge the
// preferred node to campaign. One nudge per observed change, and only
// toward an underloaded preferred node, so placement converges instead
// of oscillating.
func (c *Cluster) noteLeader(shard, node int) {
	c.mu.Lock()
	// Wake WaitForLeaders on every win, before the early return: a node
	// that wins again moves nothing in the table, but a waiter may have
	// seen it as a candidate.
	close(c.elected)
	c.elected = make(chan struct{})
	old := c.leader[shard]
	if old == node {
		c.mu.Unlock()
		return
	}
	c.leader[shard] = node
	if old >= 0 {
		c.leads[old]--
	}
	c.leads[node]++
	c.met.leader[shard].Set(int64(node))
	c.met.moves[shard].Inc(node)
	fair := (len(c.groups) + c.n - 1) / c.n
	pref := c.PreferredLeader(shard)
	nudge := node != pref && c.leads[node] > fair && c.leads[pref] < fair
	if nudge {
		c.nudges++
	}
	c.mu.Unlock()
	if nudge {
		c.met.rebal.Inc(pref)
		c.groups[shard].Nodes[pref].Campaign(nil)
	}
}

// LeaderPlacement snapshots the current leader node per shard (-1
// unknown). It reads the watcher-maintained table, which trails the
// true raft state by event delivery only.
func (c *Cluster) LeaderPlacement() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.leader...)
}

// LeaderSpread counts distinct nodes currently leading at least one
// shard — the acceptance check that multi-Raft actually spread the
// write load.
func (c *Cluster) LeaderSpread() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	spread := 0
	for _, l := range c.leads {
		if l > 0 {
			spread++
		}
	}
	return spread
}

// RebalanceNudges reports how many rebalance campaigns the placement
// watcher has requested.
func (c *Cluster) RebalanceNudges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nudges
}

// WaitForLeaders blocks until every shard has an elected leader (per
// raft status, not just the watcher table) or ctx expires. It wakes on
// the watchers' leadership edge, never on a timer: it takes the edge
// before checking the level, so a win that lands after the check still
// closes the channel it parks on.
func (c *Cluster) WaitForLeaders(ctx context.Context) error {
	for {
		c.mu.Lock()
		elected := c.elected
		c.mu.Unlock()
		if elected == nil {
			return errors.New("shard: WaitForLeaders before Start")
		}
		if c.allLed() {
			return nil
		}
		select {
		case <-elected:
		case <-ctx.Done():
			return fmt.Errorf("shard: waiting for leaders: %w", ctx.Err())
		}
	}
}

// allLed reports whether some replica of every group says it leads.
func (c *Cluster) allLed() bool {
groups:
	for _, g := range c.groups {
		for _, node := range g.Nodes {
			if node.Status().State == raft.Leader {
				continue groups
			}
		}
		return false
	}
	return true
}
