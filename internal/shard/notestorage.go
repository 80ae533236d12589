package shard

import (
	"ooc/internal/raft"
	"ooc/internal/trace"
)

// noteStorage wraps one replica's Storage to emit a trace note per
// durability flush — "fsync <channel> entries=E width=W" — so ooctrace
// can surface per-shard durability cost (fsyncs_per_op, mean barrier
// width) next to the mux-channel traffic columns without the storage
// layer knowing about shards. entries is the number of log entries the
// flush covered (0 for term/vote and snapshot records); width is how
// many groups shared the covering device barrier (LastBarrierWidth on
// storages that track it, 1 otherwise).
//
// It forwards LastBarrierWidth, the optional interface the raft layer
// discovers by assertion, which interface embedding alone would hide.
// Cluster.Start wires the node's coalescer into the store it wraps
// before wrapping it.
type noteStorage struct {
	inner   raft.Storage
	rec     *trace.Recorder
	node    int
	channel string
}

var _ raft.Storage = (*noteStorage)(nil)

func (s *noteStorage) note(entries int) {
	s.rec.Note(s.node, "fsync %s entries=%d width=%d", s.channel, entries, s.LastBarrierWidth())
}

// SetState implements raft.Storage.
func (s *noteStorage) SetState(term, votedFor int) error {
	err := s.inner.SetState(term, votedFor)
	if err == nil {
		s.note(0)
	}
	return err
}

// TruncateAndAppend implements raft.Storage.
func (s *noteStorage) TruncateAndAppend(prevIndex int, entries []raft.Entry) error {
	err := s.inner.TruncateAndAppend(prevIndex, entries)
	if err == nil {
		s.note(len(entries))
	}
	return err
}

// AppendBatch implements raft.Storage.
func (s *noteStorage) AppendBatch(muts []raft.LogMutation) error {
	err := s.inner.AppendBatch(muts)
	if err == nil && len(muts) > 0 {
		entries := 0
		for _, m := range muts {
			entries += len(m.Entries)
		}
		s.note(entries)
	}
	return err
}

// SaveSnapshot implements raft.Storage.
func (s *noteStorage) SaveSnapshot(index, term int, data []byte) error {
	err := s.inner.SaveSnapshot(index, term, data)
	if err == nil {
		s.note(0)
	}
	return err
}

// Load implements raft.Storage.
func (s *noteStorage) Load() (raft.PersistentState, error) { return s.inner.Load() }

// LastBarrierWidth forwards the wrapped storage's barrier width, 1 when
// it doesn't track one.
func (s *noteStorage) LastBarrierWidth() int {
	if ws, ok := s.inner.(interface{ LastBarrierWidth() int }); ok {
		return ws.LastBarrierWidth()
	}
	return 1
}
