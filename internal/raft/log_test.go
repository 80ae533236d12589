package raft

import (
	"testing"
	"testing/quick"
)

func entries(terms ...int) []Entry {
	out := make([]Entry, len(terms))
	for i, t := range terms {
		out[i] = Entry{Term: t, Command: i}
	}
	return out
}

func logOf(terms ...int) *raftLog {
	return &raftLog{entries: entries(terms...)}
}

func TestLogBasics(t *testing.T) {
	l := &raftLog{}
	if l.lastIndex() != 0 || l.lastTerm() != 0 {
		t.Fatalf("empty log: last=%d term=%d", l.lastIndex(), l.lastTerm())
	}
	if term, ok := l.termAt(0); !ok || term != 0 {
		t.Fatal("termAt(0) must be (0, true)")
	}
	if _, ok := l.termAt(1); ok {
		t.Fatal("termAt(1) on empty log reported ok")
	}
	if _, ok := l.termAt(-1); ok {
		t.Fatal("termAt(-1) reported ok")
	}
	idx := l.appendEntry(Entry{Term: 3, Command: "a"})
	if idx != 1 || l.lastIndex() != 1 || l.lastTerm() != 3 {
		t.Fatalf("after append: idx=%d last=%d term=%d", idx, l.lastIndex(), l.lastTerm())
	}
	e, ok := l.entryAt(1)
	if !ok || e.Command != "a" {
		t.Fatalf("entryAt(1) = %v %v", e, ok)
	}
	if _, ok := l.entryAt(2); ok {
		t.Fatal("entryAt(2) reported ok")
	}
}

func TestLogMatches(t *testing.T) {
	l := logOf(1, 1, 2)
	cases := []struct {
		index, term int
		want        bool
	}{
		{0, 0, true},
		{1, 1, true},
		{2, 1, true},
		{3, 2, true},
		{3, 1, false},
		{4, 2, false},
		{-1, 0, false},
	}
	for _, tc := range cases {
		if got := l.matches(tc.index, tc.term); got != tc.want {
			t.Errorf("matches(%d, %d) = %v, want %v", tc.index, tc.term, got, tc.want)
		}
	}
}

func TestAppendAfterPlainAppend(t *testing.T) {
	l := logOf(1, 1)
	lastNew, truncated := l.appendAfter(2, entries(2, 2))
	if lastNew != 4 || truncated {
		t.Fatalf("lastNew=%d truncated=%v", lastNew, truncated)
	}
	if l.lastIndex() != 4 || l.lastTerm() != 2 {
		t.Fatalf("log after append: %v", l)
	}
}

func TestAppendAfterIdempotent(t *testing.T) {
	l := logOf(1, 2, 2)
	// Re-delivering an already-present suffix must not truncate.
	lastNew, truncated := l.appendAfter(1, entries(2, 2))
	if lastNew != 3 || truncated || l.lastIndex() != 3 {
		t.Fatalf("lastNew=%d truncated=%v last=%d", lastNew, truncated, l.lastIndex())
	}
}

func TestAppendAfterConflictDeletesSuffix(t *testing.T) {
	l := logOf(1, 1, 1, 1)
	// New entry at index 2 with term 2 conflicts: indexes 2..4 must go.
	lastNew, truncated := l.appendAfter(1, []Entry{{Term: 2, Command: "x"}})
	if lastNew != 2 || !truncated {
		t.Fatalf("lastNew=%d truncated=%v", lastNew, truncated)
	}
	if l.lastIndex() != 2 || l.lastTerm() != 2 {
		t.Fatalf("log after conflict: last=%d term=%d", l.lastIndex(), l.lastTerm())
	}
	e, _ := l.entryAt(2)
	if e.Command != "x" {
		t.Fatalf("entry 2 = %v", e)
	}
}

func TestAppendAfterPartialOverlap(t *testing.T) {
	l := logOf(1, 1, 2)
	// Entries spanning 2..4: index 2 matches (term 1), index 3 conflicts
	// (term 3 vs 2), index 4 is new.
	lastNew, truncated := l.appendAfter(1, []Entry{{Term: 1, Command: "b"}, {Term: 3, Command: "c"}, {Term: 3, Command: "d"}})
	if lastNew != 4 || !truncated {
		t.Fatalf("lastNew=%d truncated=%v", lastNew, truncated)
	}
	wantTerms := []int{1, 1, 3, 3}
	for i, want := range wantTerms {
		if term, _ := l.termAt(i + 1); term != want {
			t.Fatalf("index %d has term %d, want %d", i+1, term, want)
		}
	}
}

func TestSlice(t *testing.T) {
	l := logOf(1, 2, 3)
	if got := l.slice(1); len(got) != 3 {
		t.Fatalf("slice(1) len %d", len(got))
	}
	if got := l.slice(3); len(got) != 1 || got[0].Term != 3 {
		t.Fatalf("slice(3) = %v", got)
	}
	if got := l.slice(4); got != nil {
		t.Fatalf("slice(4) = %v, want nil", got)
	}
	if got := l.slice(0); len(got) != 3 {
		t.Fatalf("slice(0) len %d, want clamped to full", len(got))
	}
	// Mutating the returned slice must not corrupt the log.
	s := l.slice(1)
	s[0].Term = 99
	if term, _ := l.termAt(1); term != 1 {
		t.Fatal("slice aliases log storage")
	}
}

func TestUpToDate(t *testing.T) {
	l := logOf(1, 2, 2)
	cases := []struct {
		idx, term int
		want      bool
	}{
		{3, 2, true},  // identical
		{4, 2, true},  // longer same term
		{2, 2, false}, // shorter same term
		{1, 3, true},  // higher last term wins regardless of length
		{9, 1, false}, // lower last term loses regardless of length
	}
	for _, tc := range cases {
		if got := l.upToDate(tc.idx, tc.term); got != tc.want {
			t.Errorf("upToDate(%d, %d) = %v, want %v", tc.idx, tc.term, got, tc.want)
		}
	}
}

func TestLogMatchingPropertyQuick(t *testing.T) {
	// Log Matching invariant generator: replaying any prefix of a
	// "leader history" into two logs in different orders must leave both
	// identical up to the shared index whenever tips match.
	f := func(seed uint8) bool {
		history := entries(1, 1, 2, 2, 3, 3, 3)
		a, b := &raftLog{}, &raftLog{}
		// a gets the full history; b gets a prefix, then diverges, then
		// is repaired with the full history from the divergence point.
		a.appendAfter(0, history)
		cut := int(seed) % len(history)
		b.appendAfter(0, history[:cut])
		b.appendEntry(Entry{Term: 99, Command: "divergent"})
		b.appendAfter(cut, history[cut:])
		if a.lastIndex() != b.lastIndex() {
			return false
		}
		for i := 1; i <= a.lastIndex(); i++ {
			ea, _ := a.entryAt(i)
			eb, _ := b.entryAt(i)
			if ea.Term != eb.Term {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecideOnce(t *testing.T) {
	d := NewDecideOnce()
	if _, _, ok := d.Decided(); ok {
		t.Fatal("fresh machine decided")
	}
	d.Apply(1, DS{Value: "first"})
	d.Apply(2, DS{Value: "second"})
	v, idx, ok := d.Decided()
	if !ok || v != "first" || idx != 1 {
		t.Fatalf("Decided() = (%v, %d, %v)", v, idx, ok)
	}
	select {
	case <-d.Done():
	default:
		t.Fatal("Done() not closed after decision")
	}
	// Non-DS commands decide on the raw value.
	d2 := NewDecideOnce()
	d2.Apply(1, 42)
	if v, _, _ := d2.Decided(); v != 42 {
		t.Fatalf("raw command decision = %v", v)
	}
}

func TestKVStore(t *testing.T) {
	var kv KVStore
	kv.Apply(1, KVCommand{Op: "set", Key: "a", Value: "1"})
	kv.Apply(2, KVCommand{Op: "set", Key: "b", Value: "2"})
	kv.Apply(3, KVCommand{Op: "delete", Key: "a"})
	kv.Apply(4, "not a kv command") // ignored
	if _, ok := kv.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := kv.Get("b"); !ok || v != "2" {
		t.Fatalf("Get(b) = %q %v", v, ok)
	}
	if kv.Len() != 1 || kv.AppliedIndex() != 4 {
		t.Fatalf("Len=%d Applied=%d", kv.Len(), kv.AppliedIndex())
	}
	if snap := kv.Snapshot(); len(snap) != 1 || snap[0] != "b=2" {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestStringers(t *testing.T) {
	checks := map[string]string{
		RequestVote{Term: 1, CandidateID: 2}.String():                                 "RequestVote{t=1 cand=2 lastIdx=0 lastTerm=0 pre=false}",
		RequestVoteReply{Term: 1}.String():                                            "RequestVoteReply{t=1 granted=false pre=false}",
		AppendEntriesReply{Term: 2, Success: true}.String():                           "AppendEntriesReply{t=2 ok=true match=0 hint=0 read=0}",
		ReadIndexRequest{Term: 3, ID: 7}.String():                                     "ReadIndexRequest{t=3 id=7 lease=false}",
		ReadIndexReply{Term: 3, ID: 7, Index: 4, Success: true, LeaderID: 1}.String(): "ReadIndexReply{t=3 id=7 idx=4 ok=true lease=false ldr=1}",
		DS{Value: 5}.String():                                                         "D&S(5)",
		Follower.String():                                                             "follower",
		Leader.String():                                                               "leader",
		State(9).String():                                                             "State(9)",
		EventTimeout.String():                                                         "timeout",
		EventKind(42).String():                                                        "EventKind(42)",
	}
	for got, want := range checks {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := (AppendEntries{Term: 3, LeaderID: 1, Entries: entries(1, 2)}).String(); got == "" {
		t.Error("AppendEntries.String() empty")
	}
	if got := (Event{Kind: EventApplied, Node: 1}).String(); got == "" {
		t.Error("Event.String() empty")
	}
}
