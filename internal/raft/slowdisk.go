package raft

import "time"

// SlowDisk wraps a Storage and adds a fixed device latency to every
// durability barrier — the storage-side analog of netsim's message
// delay. Benchmark hosts vary wildly in how fast (and how honestly)
// their disks acknowledge fsync: a page-cache-absorbed sync returns in
// microseconds, shared cloud storage can take milliseconds, and the
// same machine can swing between the two from minute to minute. A
// scaling experiment that compares consensus topologies ends up
// measuring that noise instead of the topology. SlowDisk pins the
// device term of the latency equation to a known constant (e.g. the
// ~1ms of a commodity SATA SSD) so runs are comparable across hosts
// and across time; the wrapped store still performs its real writes
// and syncs underneath, so durability semantics and fsync accounting
// are unchanged.
//
// Like the device it models, SlowDisk serializes its caller for the
// whole barrier: a Raft node blocked in it cannot do anything else,
// which is exactly the per-group fsync queue that sharding across
// groups parallelizes. What it does not model is the scheduler: its
// barrier is time.Sleep, which frees the caller's P at once, where a
// real one is a syscall that keeps it (FileStorage.SyncDevice) — E16
// never saw that cost.
type SlowDisk struct {
	inner   Storage
	latency time.Duration
}

var _ Storage = (*SlowDisk)(nil)

// NewSlowDisk wraps inner with a fixed latency per durability barrier.
// A zero or negative latency adds nothing.
func NewSlowDisk(inner Storage, latency time.Duration) *SlowDisk {
	return &SlowDisk{inner: inner, latency: latency}
}

// Inner returns the wrapped store (e.g. to read FileStorage.Syncs).
func (s *SlowDisk) Inner() Storage { return s.inner }

func (s *SlowDisk) barrier() {
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
}

// SetState implements Storage.
func (s *SlowDisk) SetState(term, votedFor int) error {
	err := s.inner.SetState(term, votedFor)
	s.barrier()
	return err
}

// TruncateAndAppend implements Storage.
func (s *SlowDisk) TruncateAndAppend(prevIndex int, entries []Entry) error {
	err := s.inner.TruncateAndAppend(prevIndex, entries)
	s.barrier()
	return err
}

// AppendBatch implements Storage: one modeled barrier for the whole
// batch, preserving the group-commit amortization of the inner store.
func (s *SlowDisk) AppendBatch(muts []LogMutation) error {
	err := s.inner.AppendBatch(muts)
	s.barrier()
	return err
}

// SaveSnapshot implements Storage.
func (s *SlowDisk) SaveSnapshot(index, term int, data []byte) error {
	err := s.inner.SaveSnapshot(index, term, data)
	s.barrier()
	return err
}

// Load implements Storage; reads pay no modeled latency (restart
// replay speed is not what the model is for).
func (s *SlowDisk) Load() (PersistentState, error) { return s.inner.Load() }
