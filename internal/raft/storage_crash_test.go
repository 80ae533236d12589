package raft

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ooc/internal/sim"
)

// The tests in this file hold Load to the crash model of DESIGN.md §3.5:
// FileStorage overwrites a zero-filled run-ahead in place, so what a
// crash leaves is not "a shorter file" but, sector by sector, a mix of
// the interrupted flush's bytes and what the previous barrier left.

// frameEnds walks the frames of a WAL image and returns the offset just
// past each, stopping at the run-ahead (a zero header) or at a frame the
// image does not hold whole.
func frameEnds(img []byte) []int64 {
	var ends []int64
	for off := int64(0); off+frameHeaderSize <= int64(len(img)); {
		if allZero(img[off : off+frameHeaderSize]) {
			break
		}
		next := off + frameHeaderSize + int64(binary.LittleEndian.Uint32(img[off:off+4]))
		if next > int64(len(img)) {
			break
		}
		ends = append(ends, next)
		off = next
	}
	return ends
}

// loadImage writes img to a fresh file and returns a store that has
// Loaded it.
func loadImage(t *testing.T, img []byte) (*FileStorage, PersistentState, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.wal")
	if err := os.WriteFile(path, img, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	st, err := s.Load()
	return s, st, err
}

func sameState(a, b PersistentState) bool {
	return a.Term == b.Term && a.VotedFor == b.VotedFor &&
		a.SnapIndex == b.SnapIndex && a.SnapTerm == b.SnapTerm &&
		bytes.Equal(a.SnapData, b.SnapData) &&
		len(a.Entries) == len(b.Entries) &&
		(len(a.Entries) == 0 || reflect.DeepEqual(a.Entries, b.Entries))
}

// letters returns n non-zero bytes: record payloads in these tests hold
// no run of zeros, so a zero sector in an image is one no flush wrote.
func letters(rng *sim.RNG, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(26)))
	}
	return sb.String()
}

// crashHistory drives one random history of SetState / AppendBatch /
// SaveSnapshot through a FileStorage, mirroring every record into a
// MemStorage. Each call is one flush under one barrier.
type crashHistory struct {
	t      *testing.T
	rng    *sim.RNG
	s      *FileStorage
	mem    *MemStorage
	expect []PersistentState // expect[r]: the replay of the first r records
	images [][]byte          // images[i]: the file, not closed, after barrier i (images[0]: empty)
	recs   []int             // recs[i]: records written through barrier i
	term   int
	last   int // last log index
	snap   int // last snapshot index
}

func (h *crashHistory) barrier() {
	h.t.Helper()
	img, err := os.ReadFile(h.s.path)
	if err != nil {
		h.t.Fatal(err)
	}
	h.images = append(h.images, img)
	h.recs = append(h.recs, len(h.expect)-1)
}

func (h *crashHistory) recorded() {
	st, _ := h.mem.Load()
	h.expect = append(h.expect, st)
}

func (h *crashHistory) step() {
	h.t.Helper()
	var err error
	switch k := h.rng.Intn(10); {
	case k < 2:
		h.term++
		vote := h.rng.Intn(4) - 1
		err = h.s.SetState(h.term, vote)
		_ = h.mem.SetState(h.term, vote)
		h.recorded()
	case k < 3 && h.last > h.snap:
		// A compaction names the term of the entry it covers and keeps the
		// tail after it; an install may name another, and the tail goes.
		index := h.snap + 1 + h.rng.Intn(h.last-h.snap)
		st, _ := h.mem.Load()
		term := st.Entries[index-st.SnapIndex-1].Term
		if h.rng.Intn(2) == 0 {
			term = h.term
		}
		data := []byte(letters(h.rng, h.rng.Intn(2000)))
		err = h.s.SaveSnapshot(index, term, data)
		_ = h.mem.SaveSnapshot(index, term, data)
		if term != st.Entries[index-st.SnapIndex-1].Term {
			h.last = index
		}
		h.snap = index
		h.recorded()
	default:
		var muts []LogMutation
		for left := 1 + h.rng.Intn(40); left > 0; {
			n := 1 + h.rng.Intn(left)
			left -= n
			prev := h.last
			if h.rng.Intn(5) == 0 { // a conflicting suffix from a newer term
				prev = h.snap + h.rng.Intn(h.last-h.snap+1)
				h.term++
			}
			es := make([]Entry, n)
			for j := range es {
				es[j] = Entry{Term: h.term, Command: KVCommand{Op: "set", Key: letters(h.rng, 1+h.rng.Intn(8)), Value: letters(h.rng, h.rng.Intn(300))}}
			}
			muts = append(muts, LogMutation{PrevIndex: prev, Entries: es})
			if err := h.mem.TruncateAndAppend(prev, es); err != nil {
				h.t.Fatal(err)
			}
			h.last = prev + n
			h.recorded()
		}
		err = h.s.AppendBatch(muts)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	h.barrier()
}

// crashImage builds what a crash during the flush before→after may leave:
// every sector the flush changed independently holds its new bytes or is
// put back to what the previous barrier left (zeros where the file did
// not reach yet), and the file's length may have got anywhere between
// the two. keep decides per changed sector.
func crashImage(before, after []byte, rng *sim.RNG, keep func() bool) []byte {
	img := append([]byte(nil), after...)
	old := make([]byte, len(after))
	copy(old, before)
	for lo := 0; lo < len(after); lo += sectorSize {
		hi := min(lo+sectorSize, len(after))
		if !bytes.Equal(after[lo:hi], old[lo:hi]) && !keep() {
			copy(img[lo:hi], old[lo:hi])
		}
	}
	if len(after) > len(before) && rng.Intn(4) == 0 {
		img = img[:len(before)+rng.Intn(len(after)-len(before)+1)]
	}
	return img
}

func TestLoadCrashImageSectorSubsets(t *testing.T) {
	images := 0
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		s, err := OpenFileStorage(filepath.Join(t.TempDir(), "raft.log"))
		if err != nil {
			t.Fatal(err)
		}
		h := &crashHistory{t: t, rng: rng, s: s, mem: NewMemStorage(), term: 1}
		h.recorded() // expect[0]: the empty store
		h.barrier()  // images[0]: the empty file
		for i := 0; i < 12; i++ {
			h.step()
		}
		_ = s.Close()

		for n := 0; n+1 < len(h.images); n++ {
			before, after := h.images[n], h.images[n+1]
			lo, hi := h.recs[n], h.recs[n+1]
			keeps := []func() bool{
				func() bool { return false }, // nothing of the flush reached the disk
				func() bool { return true },  // all of it did
			}
			for i := 0; i < 3; i++ {
				keeps = append(keeps, func() bool { return rng.Intn(2) == 0 })
			}
			for k, keep := range keeps {
				img := crashImage(before, after, rng, keep)
				images++
				cs, st, err := loadImage(t, img)
				if err != nil {
					t.Fatalf("seed %d flush %d image %d: Load: %v", seed, n+1, k, err)
				}
				r := lo
				for r <= hi && !sameState(st, h.expect[r]) {
					r++
				}
				if r > hi {
					t.Fatalf("seed %d flush %d image %d: loaded state is not the replay of %d..%d records: term=%d vote=%d snap=%d entries=%d",
						seed, n+1, k, lo, hi, st.Term, st.VotedFor, st.SnapIndex, len(st.Entries))
				}
				if k == 0 && !sameState(st, h.expect[lo]) {
					t.Fatalf("seed %d flush %d: a flush that never reached the disk changed the state", seed, n+1)
				}
				if k == 1 && len(img) == len(after) && !sameState(st, h.expect[hi]) {
					t.Fatalf("seed %d flush %d: a flush that reached the disk whole lost records", seed, n+1)
				}
				// Nothing past the last good record survives Load: a later
				// record of the torn flush that happens to be intact was
				// never acknowledged and must not come back.
				if size := fileSize(t, cs.path); size != cs.pos {
					t.Fatalf("seed %d flush %d image %d: file is %d bytes after Load, records end at %d", seed, n+1, k, size, cs.pos)
				}

				// The restarted node keeps writing on whatever tail Load left.
				last := st.SnapIndex + len(st.Entries)
				extra := Entry{Term: 1 << 20, Command: KVCommand{Op: "set", Key: "after", Value: "crash"}}
				if err := cs.TruncateAndAppend(last, []Entry{extra}); err != nil {
					t.Fatal(err)
				}
				if err := cs.Close(); err != nil {
					t.Fatal(err)
				}
				again, err := OpenFileStorage(cs.path)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := again.Load()
				_ = again.Close()
				if err != nil {
					t.Fatalf("seed %d flush %d image %d: reload after post-crash append: %v", seed, n+1, k, err)
				}
				st.Entries = append(st.Entries, extra)
				if !sameState(st2, st) {
					t.Fatalf("seed %d flush %d image %d: post-crash append did not round-trip: %d entries, want %d",
						seed, n+1, k, len(st2.Entries), len(st.Entries))
				}
			}
		}
	}
	if images < 200 {
		t.Fatalf("only %d crash images exercised, want at least 200", images)
	}
}

// TestFileStorageZeroedInteriorSectorReadsAsTornTail pins the one place
// the overwrite-in-place reader is more lenient than the append-only one
// it replaced: an interior sector that reads back all zero looks exactly
// like a sector an interrupted flush never reached, so Load returns the
// prefix before it rather than errCorrupt. The trade is deliberate
// (DESIGN.md §3.5) — this test is here so it stays a decision.
func TestFileStorageZeroedInteriorSectorReadsAsTornTail(t *testing.T) {
	rng := sim.NewRNG(7)
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := Entry{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: letters(rng, 700)}}
		if err := s.TruncateAndAppend(i, []Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(full)
	const sector = 3 // bytes 1536..2047, inside the third record
	copy(full[sector*sectorSize:(sector+1)*sectorSize], make([]byte, sectorSize))
	intact := 0
	for _, e := range ends {
		if e <= sector*sectorSize {
			intact++
		}
	}
	if intact == 0 || intact >= len(ends)-1 {
		t.Fatalf("zeroed sector is not interior: %d of %d records precede it", intact, len(ends))
	}
	_, st, err := loadImage(t, full)
	if err != nil {
		t.Fatalf("Load over a zeroed interior sector = %v, want the prefix", err)
	}
	if len(st.Entries) != intact {
		t.Fatalf("loaded %d entries, want the %d before the zeroed sector", len(st.Entries), intact)
	}
}

// TestFileStorageGarbageLengthIsTornTail: a final header whose length is
// garbage is a frame that runs past the end of the file — a torn tail —
// and Load must find that out from the file's size, not by allocating
// what the header asks for.
func TestFileStorageGarbageLengthIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
	img := append(append(append([]byte(nil), good...), hdr[:]...), "torn"...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, st, err := loadImage(t, img)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Load = %v, want the prefix", err)
	}
	if st.Term != 7 || st.VotedFor != 1 {
		t.Fatalf("usable prefix lost: %+v", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Load allocated %d bytes over a %d-byte file", grew, len(img))
	}
	if size := fileSize(t, cs.path); size != int64(len(good)) {
		t.Fatalf("torn tail not truncated: size %d, want %d", size, len(good))
	}
}
