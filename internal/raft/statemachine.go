package raft

import (
	"fmt"
	"sort"
	"sync"

	"ooc/internal/codec/bin"
)

// StateMachine consumes committed log entries in index order.
// Apply is called from a single goroutine, the node's dedicated apply
// worker. An Apply that blocks never loses or reorders entries — the
// bounded apply queue (applyQueueDepth) fills and backpressures
// the main loop — but it stalls ReadIndex waiters and, once the queue
// is full, the whole node.
type StateMachine interface {
	Apply(index int, command any)
}

// Snapshotter is the optional state-machine extension log compaction
// needs: SnapshotData captures the full applied state, RestoreSnapshot
// replaces it. A node only compacts (and can only install received
// snapshots) when its StateMachine implements Snapshotter.
type Snapshotter interface {
	// SnapshotData serializes the state as of the last applied entry.
	SnapshotData() ([]byte, error)
	// RestoreSnapshot replaces the state with the snapshot taken at the
	// given log index.
	RestoreSnapshot(index int, data []byte) error
}

// Noop is the empty entry every new leader appends at the start of its
// term (Raft §5.4.2 / §8): committing it is the only safe way to learn
// that all preceding entries are committed too, since leaders may only
// count replicas for current-term entries. State machines ignore it.
type Noop struct{}

// String implements fmt.Stringer.
func (Noop) String() string { return "noop" }

// DS is the paper's single command, D&S(v): "decide on the value v and
// stop applying any further commands thereafter".
type DS struct {
	Value any
}

// String implements fmt.Stringer.
func (d DS) String() string { return fmt.Sprintf("D&S(%v)", d.Value) }

// DecideOnce is the state machine induced by D&S: it decides on the first
// command applied and ignores everything after — "the processor decides
// upon the first value it sees in its log". The zero value is ready to
// use.
type DecideOnce struct {
	mu      sync.Mutex
	decided bool
	value   any
	index   int
	done    chan struct{}
}

var _ StateMachine = (*DecideOnce)(nil)

// NewDecideOnce returns an undecided machine.
func NewDecideOnce() *DecideOnce {
	return &DecideOnce{done: make(chan struct{})}
}

// Apply implements StateMachine.
func (d *DecideOnce) Apply(index int, command any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.decided {
		return
	}
	if _, isNoop := command.(Noop); isNoop {
		return // leader no-ops carry no decision value
	}
	d.decided = true
	d.index = index
	if ds, ok := command.(DS); ok {
		d.value = ds.Value
	} else {
		d.value = command
	}
	if d.done != nil {
		close(d.done)
	}
}

// Decided reports the decision, if one was reached.
func (d *DecideOnce) Decided() (value any, index int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.value, d.index, d.decided
}

// Done is closed once the machine decides. It returns nil for a zero
// value constructed without NewDecideOnce.
func (d *DecideOnce) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done
}

// KVCommand mutates a KVStore: Set writes, Delete removes.
type KVCommand struct {
	Op    string // "set" or "delete"
	Key   string
	Value string
}

// String implements fmt.Stringer.
func (c KVCommand) String() string { return fmt.Sprintf("%s(%s=%s)", c.Op, c.Key, c.Value) }

// KVStore is a replicated key-value state machine — the kind of
// application log Raft was designed for, used by cmd/raftkv and the
// raftkv example. The zero value is ready to use.
type KVStore struct {
	mu      sync.Mutex
	data    map[string]string
	applied int
}

var _ StateMachine = (*KVStore)(nil)

// Apply implements StateMachine.
func (s *KVStore) Apply(index int, command any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string]string)
	}
	s.applied = index
	cmd, ok := command.(KVCommand)
	if !ok {
		return // foreign commands are ignored, not fatal
	}
	switch cmd.Op {
	case "set":
		s.data[cmd.Key] = cmd.Value
	case "delete":
		delete(s.data, cmd.Key)
	}
}

// Get reads a key.
func (s *KVStore) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Len reports the number of keys.
func (s *KVStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// AppliedIndex reports the last applied log index.
func (s *KVStore) AppliedIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

var _ Snapshotter = (*KVStore)(nil)

// SnapshotData implements Snapshotter: [uvarint n], then the n
// [key][value] string pairs in key order, so stores holding the same
// keys snapshot to the same bytes.
func (s *KVStore) SnapshotData() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := bin.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		out = bin.AppendString(out, k)
		out = bin.AppendString(out, s.data[k])
	}
	return out, nil
}

// RestoreSnapshot implements Snapshotter. It refuses input that is
// truncated, runs past the last pair, or counts more pairs than it has
// bytes.
func (s *KVStore) RestoreSnapshot(index int, data []byte) error {
	r := bin.NewReader(data)
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		return fmt.Errorf("raft: kv restore: %d pairs in %d bytes", n, r.Len())
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := r.String()
		m[k] = r.String()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("raft: kv restore: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("raft: kv restore: %d trailing bytes", r.Len())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = m
	s.applied = index
	return nil
}

// Snapshot returns a sorted key=value listing, for tests and the CLI.
func (s *KVStore) Snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k, v := range s.data {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}
