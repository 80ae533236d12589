package raft

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tests in this file pin the mechanism behind FileStorage's barrier
// cost: records overwrite a zero-filled run-ahead, so a steady-state
// flush leaves the file's size — and with it the filesystem's journal —
// alone.

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestSteadyStateAppendDoesNotGrowFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	// 1 KiB records: 2,000 of them fill the first runAheadMin bytes in
	// four appends, walk the run-ahead through every doubling and end
	// well into its 1 MiB steady state.
	const appends, valueLen = 2000, 1000
	es := []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: strings.Repeat("v", valueLen)}}}
	size := fileSize(t, path)
	changes, lastChange, steadySince := 0, -2, -1
	for i := 0; i < appends; i++ {
		if err := s.TruncateAndAppend(i, es); err != nil {
			t.Fatal(err)
		}
		now := fileSize(t, path)
		if now == size {
			continue
		}
		if size < runAheadMin {
			size = now
			continue // no run-ahead yet: the file grows by what is written
		}
		if i == lastChange+1 {
			t.Fatalf("append %d and append %d both changed the file's size", lastChange, i)
		}
		if steadySince >= 0 && (i-steadySince)*valueLen < runAheadMax/2 {
			t.Fatalf("size changed at append %d, only %d appends after a %d-byte run-ahead was laid down at %d", i, i-steadySince, runAheadMax, steadySince)
		}
		if now-size >= runAheadMax {
			steadySince = i
		}
		changes, lastChange, size = changes+1, i, now
	}
	if steadySince < 0 {
		t.Fatalf("run-ahead never reached its %d-byte steady state in %d appends", runAheadMax, appends)
	}
	if changes > 12 {
		t.Fatalf("%d appends changed the file's size %d times once it had a run-ahead, want at most 12", appends, changes)
	}
}

func TestCloseLeavesNoRunAhead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(2, 1); err != nil {
		t.Fatal(err)
	}
	if open := fileSize(t, path); open != s.pos {
		t.Fatalf("a store of %d bytes laid down a run-ahead: size %d", s.pos, open)
	}
	big := Entry{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: strings.Repeat("v", runAheadMin)}}
	if err := s.TruncateAndAppend(0, []Entry{big, {Term: 2}}); err != nil {
		t.Fatal(err)
	}
	if open := fileSize(t, path); open <= s.pos {
		t.Fatalf("open store holds no run-ahead: size %d, records end at %d", open, s.pos)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closedFramesOnly := func(records int) {
		t.Helper()
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(img)
		if len(ends) != records || ends[len(ends)-1] != int64(len(img)) {
			t.Fatalf("closed file is %d bytes holding frames ending at %v, want exactly %d frames", len(img), ends, records)
		}
	}
	closedFramesOnly(2)

	s2, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s2.Load(); err != nil || len(st.Entries) != 2 {
		t.Fatalf("reload: %+v %v", st, err)
	}
	if err := s2.TruncateAndAppend(2, entries(3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	closedFramesOnly(3)

	s3, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s3.Close() }()
	st, err := s3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 2 || st.VotedFor != 1 || len(st.Entries) != 3 || st.Entries[2].Term != 3 {
		t.Fatalf("round trip: %+v", st)
	}
}

// TestLargeBatchSpillKeepsPos: a record larger than bufKeep does not
// spill — nothing of it reaches the file before flush, which writes it in
// one piece where pos says and then lets the buffer's capacity go. The
// file's frames end where the store says its records do, so the
// run-ahead's zeros land after the record, not on it.
func TestLargeBatchSpillKeepsPos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.SetState(1, 0); err != nil {
		t.Fatal(err)
	}
	snap := []byte(strings.Repeat("snapshot", 200<<10/8))
	size := fileSize(t, path)
	if err := s.encodeRecord(record{Kind: recordSnapshot, SnapIndex: 10, SnapTerm: 1, SnapData: snap}); err != nil {
		t.Fatal(err)
	}
	if now := fileSize(t, path); now != size || int64(len(s.buf)) != s.pos-size {
		t.Fatalf("a %d-byte record spilled before flush: file %d → %d bytes, %d buffered", len(snap), size, now, len(s.buf))
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.buf) != 0 || cap(s.buf) > bufKeep {
		t.Fatalf("after the flush the buffer holds %d bytes with capacity %d, want 0 and at most %d", len(s.buf), cap(s.buf), bufKeep)
	}
	for i := 0; i < 3; i++ {
		if err := s.TruncateAndAppend(10+i, entries(2)); err != nil {
			t.Fatal(err)
		}
	}
	// The crash image: the file as it stands, never closed.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ends := frameEnds(img); len(ends) != 5 || ends[4] != s.pos {
		t.Fatalf("frames end at %v, store says %d", ends, s.pos)
	}
	_, st, err := loadImage(t, img)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapIndex != 10 || string(st.SnapData) != string(snap) || len(st.Entries) != 3 {
		t.Fatalf("reload after a large record: snap=%d (%d bytes) entries=%d", st.SnapIndex, len(st.SnapData), len(st.Entries))
	}
}

// A batch whose second mutation cannot be encoded fails as a whole: the
// first mutation's frame does not stay buffered for the next flush to
// write, so a reload finds none of the failed call.
func TestFailedAppendBatchLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Entry{{Term: 1, Command: struct{ C chan int }{}}}
	if err := s.AppendBatch([]LogMutation{{PrevIndex: 0, Entries: entries(1)}, {PrevIndex: 1, Entries: bad}}); err == nil {
		t.Fatal("a batch with an unencodable command succeeded")
	}
	if len(s.buf) != 0 || s.pos != 0 {
		t.Fatalf("the failed batch left %d bytes buffered, pos %d", len(s.buf), s.pos)
	}
	if err := s.SetState(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 3 || st.VotedFor != 1 || len(st.Entries) != 0 {
		t.Fatalf("reload: term %d, vote %d, %d entries; want 3, 1, 0", st.Term, st.VotedFor, len(st.Entries))
	}
}

func TestWriteBeforeLoadOnNonEmptyStoreFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(4, 2); err != nil { // an empty store needs no Load
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SetState(9, 0); err == nil {
		t.Fatal("SetState on a non-empty store that was never Loaded succeeded")
	}
	if err := s2.AppendBatch([]LogMutation{{PrevIndex: 0, Entries: entries(1)}}); err == nil {
		t.Fatal("AppendBatch on a non-empty store that was never Loaded succeeded")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
		t.Fatalf("refused writes changed the file: %d bytes, want %d (%v)", len(got), len(want), err)
	}

	s3, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s3.Close() }()
	for i := 0; i < 2; i++ { // NewNode and a harness may both Load
		if st, err := s3.Load(); err != nil || st.Term != 4 {
			t.Fatalf("Load %d: %+v %v", i, st, err)
		}
	}
	if err := s3.SetState(9, 0); err != nil {
		t.Fatalf("SetState after Load: %v", err)
	}
}
