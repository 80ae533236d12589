package raft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ooc/internal/sim"
)

func TestFileStorageAppendBatchSingleSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	before := s.Syncs()
	batch := []LogMutation{
		{PrevIndex: 0, Entries: []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "a", Value: "1"}}}},
		{PrevIndex: 1, Entries: []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "b", Value: "2"}}}},
		{PrevIndex: 2, Entries: []Entry{{Term: 2, Command: KVCommand{Op: "set", Key: "c", Value: "3"}}}},
	}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got != 1 {
		t.Fatalf("AppendBatch issued %d syncs, want 1 (group commit)", got)
	}
	// The batch must replay identically to sequential TruncateAndAppend.
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
	if len(st.Entries) != 3 || st.Entries[2].Term != 2 {
		t.Fatalf("batch replay: %+v", st.Entries)
	}
}

// TestFileStorageRejectsInteriorCorruption: a complete interior frame
// that fails validation is the disk lying, not a crash — silently
// dropping the suffix would roll back acknowledged state, so Load must
// refuse. Reading a zero sector as a torn tail (storage_crash_test.go)
// must not have loosened this: bit-flips, garbage and undecodable
// records hold no aligned run of zeros and are refused as before.
func TestFileStorageRejectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(3, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e := Entry{Term: 1, Command: KVCommand{Op: "set", Key: "a", Value: strings.Repeat("interior", 100)}}
		if err := s.TruncateAndAppend(i, []Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(good)
	if len(ends) != 4 {
		t.Fatalf("parsed %d frames, want 4", len(ends))
	}
	if _, _, err := loadImage(t, good); err != nil {
		t.Fatalf("undamaged file: %v", err)
	}
	rec := ends[0] // the first log record: interior, ~800 bytes, over a sector boundary
	flip := func(off int64, mask byte) func([]byte) []byte {
		return func(img []byte) []byte { img[off] ^= mask; return img }
	}
	unknownKind := []byte{recordVersion, 9}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(unknownKind)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(unknownKind))
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"payload bit", flip(rec+frameHeaderSize+20, 0x10)},
		// The frame still fits in the file; a length that runs past the
		// end of the file is a torn tail, as it always was.
		{"len low bit", flip(rec, 0x01)},
		{"crc bit", flip(rec+4, 0x01)},
		{"garbage over a payload", func(img []byte) []byte {
			copy(img[rec+frameHeaderSize+10:], bytes.Repeat([]byte{0xA5}, 600))
			return img
		}},
		{"good crc, unknown kind", func(img []byte) []byte {
			return append(append(append([]byte(nil), img[:rec]...), append(hdr[:], unknownKind...)...), img[rec:]...)
		}},
	} {
		img := tc.damage(append([]byte(nil), good...))
		if _, _, err := loadImage(t, img); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Load = %v, want errCorrupt", tc.name, err)
		}
	}
}

func TestFileStorageTornTailThenAppend(t *testing.T) {
	// Regression: a crash tears the final record, the node restarts and
	// keeps writing. The torn bytes must not linger between the surviving
	// prefix and the new records — Load truncates them away, so the next
	// Load sees prefix + post-crash records, not garbage mid-file.
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(0, []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "a", Value: "1"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(1, []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "b", Value: "2"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second record in half.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Restarted node: Load drops the torn record, then appends more.
	s2, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Entries) != 1 {
		t.Fatalf("after torn tail: %+v", st.Entries)
	}
	if err := s2.TruncateAndAppend(1, []Entry{{Term: 2, Command: KVCommand{Op: "set", Key: "c", Value: "3"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s3.Close() }()
	st, err = s3.Load()
	if err != nil {
		t.Fatalf("post-crash append landed on a dirty tail: %v", err)
	}
	if len(st.Entries) != 2 || st.Entries[1].Term != 2 {
		t.Fatalf("post-crash log: %+v", st.Entries)
	}
	if c, ok := st.Entries[1].Command.(KVCommand); !ok || c.Key != "c" {
		t.Fatalf("post-crash entry mangled: %+v", st.Entries[1])
	}
}

// TestAppendBatchPrefixReplayConsistent is the crash-consistency property
// of the group-commit path: cut the file at ANY byte offset (a crash can
// tear a batched write anywhere) and Load must succeed, yielding exactly
// the state produced by replaying the complete-record prefix — never an
// error, never a state that skips a middle record.
func TestAppendBatchPrefixReplayConsistent(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed)

		// Build a random but valid mutation history.
		var muts []LogMutation
		logLen := 0
		for i := 0; i < 6; i++ {
			prev := rng.Intn(logLen + 1)
			n := 1 + rng.Intn(3)
			es := make([]Entry, n)
			for j := range es {
				es[j] = Entry{Term: i + 1, Command: KVCommand{Op: "set", Key: "k", Value: "v"}}
			}
			muts = append(muts, LogMutation{PrevIndex: prev, Entries: es})
			logLen = prev + n
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "raft.log")
		s, err := OpenFileStorage(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetState(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(muts); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Frame boundaries, from the length headers.
		var ends []int64
		for off := int64(0); off+frameHeaderSize <= int64(len(full)); {
			length := int64(binary.LittleEndian.Uint32(full[off : off+4]))
			next := off + frameHeaderSize + length
			if next > int64(len(full)) {
				break
			}
			ends = append(ends, next)
			off = next
		}
		if len(ends) != len(muts)+1 { // +1 for the state record
			t.Fatalf("seed %d: parsed %d frames, want %d", seed, len(ends), len(muts)+1)
		}

		// Expected state after each record prefix, via the in-memory model.
		expect := make([]PersistentState, len(ends)+1)
		mem := NewMemStorage()
		expect[0], _ = mem.Load()
		_ = mem.SetState(1, 0)
		expect[1], _ = mem.Load()
		for i, m := range muts {
			if err := mem.TruncateAndAppend(m.PrevIndex, m.Entries); err != nil {
				t.Fatal(err)
			}
			expect[i+2], _ = mem.Load()
		}

		// Every frame boundary (±1 byte) plus a stride through the file:
		// exhaustive-by-byte is O(file²) in Load work for no extra coverage.
		cuts := map[int64]bool{0: true, int64(len(full)): true}
		for _, e := range ends {
			cuts[e-1], cuts[e] = true, true
			if e+1 <= int64(len(full)) {
				cuts[e+1] = true
			}
		}
		for off := int64(0); off < int64(len(full)); off += 7 {
			cuts[off] = true
		}
		for cut := range cuts {
			k := 0
			for _, e := range ends {
				if e <= cut {
					k++
				}
			}
			p := filepath.Join(dir, "cut.log")
			if err := os.WriteFile(p, full[:cut], 0o600); err != nil {
				t.Fatal(err)
			}
			cs, err := OpenFileStorage(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := cs.Load()
			_ = cs.Close()
			if err != nil {
				t.Fatalf("seed %d cut %d: Load: %v", seed, cut, err)
			}
			want := expect[k]
			if st.Term != want.Term || st.VotedFor != want.VotedFor || len(st.Entries) != len(want.Entries) {
				t.Fatalf("seed %d cut %d (%d records): got term=%d vote=%d len=%d, want term=%d vote=%d len=%d",
					seed, cut, k, st.Term, st.VotedFor, len(st.Entries), want.Term, want.VotedFor, len(want.Entries))
			}
			for i := range st.Entries {
				if st.Entries[i].Term != want.Entries[i].Term {
					t.Fatalf("seed %d cut %d: entry %d term %d, want %d", seed, cut, i, st.Entries[i].Term, want.Entries[i].Term)
				}
			}
		}
	}
}
