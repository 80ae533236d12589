package raft

import "fmt"

// Entry is one log record: the command and the term in which the leader
// received it. Indexes are 1-based and implicit in the entry's position.
type Entry struct {
	Term    int
	Command any
}

// raftLog wraps the indexed entry list with the index arithmetic Raft
// needs. Index 0 is the empty log's sentinel (term 0). After compaction
// the prefix up to snapIndex lives only in the state-machine snapshot;
// entries[i] then holds global index snapIndex+1+i, and snapData is the
// state machine's snapshot at snapIndex, what a laggard is sent.
type raftLog struct {
	entries   []Entry
	snapIndex int // last compacted index (0 = nothing compacted)
	snapTerm  int // term of the entry at snapIndex
	snapData  []byte
}

// lastIndex reports the index of the newest entry (snapIndex when the
// tail is empty, 0 for a fresh log).
func (l *raftLog) lastIndex() int { return l.snapIndex + len(l.entries) }

// termAt reports the term of the entry at index; termAt(snapIndex) is
// answered from the snapshot marker. ok is false when the index is out of
// range or compacted away.
func (l *raftLog) termAt(index int) (term int, ok bool) {
	switch {
	case index == l.snapIndex:
		return l.snapTerm, true
	case index < l.snapIndex || index < 0 || index > l.lastIndex():
		return 0, false
	default:
		return l.entries[index-l.snapIndex-1].Term, true
	}
}

// lastTerm reports the term of the newest entry (0 when empty).
func (l *raftLog) lastTerm() int {
	t, _ := l.termAt(l.lastIndex())
	return t
}

// entryAt returns the entry at a 1-based global index; compacted entries
// are gone.
func (l *raftLog) entryAt(index int) (Entry, bool) {
	if index <= l.snapIndex || index > l.lastIndex() {
		return Entry{}, false
	}
	return l.entries[index-l.snapIndex-1], true
}

// matches reports whether the log contains an entry at index with the
// given term — the AppendEntries consistency check.
func (l *raftLog) matches(index, term int) bool {
	t, ok := l.termAt(index)
	return ok && t == term
}

// appendAfter implements the receiver side of AppendEntries: given that
// prevIndex matched, it appends entries, deleting any conflicting suffix
// ("if an existing entry conflicts with a new one, delete the existing
// entry and all that follow it"). It returns the index of the last new
// entry and whether any existing entries were truncated.
func (l *raftLog) appendAfter(prevIndex int, entries []Entry) (lastNew int, truncated bool) {
	for i, e := range entries {
		idx := prevIndex + 1 + i
		if idx <= l.snapIndex {
			continue // already compacted, hence already committed
		}
		pos := idx - l.snapIndex - 1 // position in the tail slice
		if pos < len(l.entries) {
			if l.entries[pos].Term == e.Term {
				continue // already present
			}
			l.entries = l.entries[:pos]
			truncated = true
		}
		l.entries = append(l.entries, e)
	}
	return prevIndex + len(entries), truncated
}

// appendEntry appends a fresh entry (leader side) and returns its global
// index.
func (l *raftLog) appendEntry(e Entry) int {
	l.entries = append(l.entries, e)
	return l.lastIndex()
}

// slice returns a copy of entries[from..last] (global indexes,
// inclusive). Requests reaching into the compacted prefix are clamped to
// the available tail — the caller must detect from <= snapIndex and ship
// a snapshot instead.
func (l *raftLog) slice(from int) []Entry {
	if from <= l.snapIndex {
		from = l.snapIndex + 1
	}
	if from > l.lastIndex() {
		return nil
	}
	pos := from - l.snapIndex - 1
	out := make([]Entry, len(l.entries)-pos)
	copy(out, l.entries[pos:])
	return out
}

// sliceLimit returns a copy of at most max entries starting at the
// global index from — the unit a pipelined AppendEntries carries. A
// non-positive max means no limit.
func (l *raftLog) sliceLimit(from, max int) []Entry {
	if from <= l.snapIndex {
		from = l.snapIndex + 1
	}
	if from > l.lastIndex() {
		return nil
	}
	pos := from - l.snapIndex - 1
	n := len(l.entries) - pos
	if max > 0 && n > max {
		n = max
	}
	out := make([]Entry, n)
	copy(out, l.entries[pos:pos+n])
	return out
}

// snapshotAt is the one snapshot suffix rule, for a compaction and an
// installed snapshot alike: the log becomes the snapshot at (index, term)
// followed, when the log holds index in that term, by the entries after
// it, and by nothing otherwise. Storage applies the same rule to its tail
// (snapTail), so a restart reloads the log the node held.
func (l *raftLog) snapshotAt(index, term int, data []byte) {
	l.entries = snapTail(l.entries, l.snapIndex, l.snapTerm, index, term)
	l.snapIndex, l.snapTerm, l.snapData = index, term, data
}

// snapTail is snapshotAt over a bare tail: the entries after the marker
// (at, atTerm) that a snapshot at (index, term) keeps.
func snapTail(tail []Entry, at, atTerm, index, term int) []Entry {
	l := raftLog{entries: tail, snapIndex: at, snapTerm: atTerm}
	if !l.matches(index, term) {
		return nil
	}
	return l.slice(index + 1)
}

// upToDate reports whether a candidate log described by (lastIndex,
// lastTerm) is at least as up-to-date as this one — the election
// restriction of Raft §5.4.1.
func (l *raftLog) upToDate(lastIndex, lastTerm int) bool {
	myTerm := l.lastTerm()
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= l.lastIndex()
}

// String implements fmt.Stringer for debugging.
func (l *raftLog) String() string {
	return fmt.Sprintf("log(last=%d lastTerm=%d compacted=%d)", l.lastIndex(), l.lastTerm(), l.snapIndex)
}
