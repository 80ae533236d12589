package raft

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"ooc/internal/codec/bin"
)

// Storage persists the Raft state that must survive a crash: currentTerm,
// votedFor, and the log. A node configured with a Storage restores from
// it in NewNode and persists before acting on any state change, per the
// Raft paper's durability rules. CommitIndex and lastApplied are volatile
// and rebuilt from the leader after restart.
//
// Implementations must be safe for use from one goroutine at a time:
// every write lands on the node's persist worker, and Load runs once
// in NewNode before that goroutine exists. They need not be safe for
// concurrent nodes.
type Storage interface {
	// SetState durably records the term and vote.
	SetState(term, votedFor int) error
	// TruncateAndAppend durably applies a log mutation with exactly the
	// in-memory appendAfter semantics: entries already present with the
	// same term are left untouched (asynchronous networks redeliver old
	// AppendEntries out of order), a term conflict truncates the suffix,
	// and new entries are appended. Indexes at or below the last saved
	// snapshot are silently skipped.
	TruncateAndAppend(prevIndex int, entries []Entry) error
	// AppendBatch durably applies a sequence of log mutations with a
	// single durability barrier — the group-commit seam. It is equivalent
	// to calling TruncateAndAppend for each mutation in order, except that
	// a FileStorage pays one barrier for the whole batch instead of one per
	// mutation. Crash-consistency contract: a crash mid-batch may lose a
	// suffix of the batch, but the surviving prefix must replay to a
	// consistent PersistentState (see Load).
	AppendBatch(muts []LogMutation) error
	// SaveSnapshot durably records a state-machine snapshot covering the
	// log through index; entries up to it may be discarded.
	SaveSnapshot(index, term int, data []byte) error
	// Load restores the persisted state; a fresh store returns zero
	// values and no error.
	Load() (PersistentState, error)
}

// LogMutation is one TruncateAndAppend-shaped log change, the unit
// AppendBatch coalesces: entries replace/extend the log after PrevIndex.
type LogMutation struct {
	PrevIndex int
	Entries   []Entry
}

// PersistentState is the durable part of Figure 2, plus the compaction
// snapshot. Entries holds the log tail after SnapIndex; Entries[i] is
// global index SnapIndex+1+i.
type PersistentState struct {
	Term      int
	VotedFor  int // none (-1) when unset; Load on a fresh store returns none
	SnapIndex int
	SnapTerm  int
	SnapData  []byte // nil when no snapshot was saved
	Entries   []Entry
}

// MemStorage keeps the persistent state in memory — it survives a *node*
// restart (the crash-recovery tests) though not a process restart.
// Create it with NewMemStorage.
type MemStorage struct {
	mu        sync.Mutex
	term      int
	votedFor  int
	snapIndex int
	snapTerm  int
	snapData  []byte
	entries   []Entry // tail after snapIndex
}

var _ Storage = (*MemStorage)(nil)

// NewMemStorage returns an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{votedFor: none}
}

// SetState implements Storage.
func (s *MemStorage) SetState(term, votedFor int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term, s.votedFor = term, votedFor
	return nil
}

// TruncateAndAppend implements Storage.
func (s *MemStorage) TruncateAndAppend(prevIndex int, entries []Entry) error {
	return s.AppendBatch([]LogMutation{{PrevIndex: prevIndex, Entries: entries}})
}

// AppendBatch implements Storage.
func (s *MemStorage) AppendBatch(muts []LogMutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range muts {
		var err error
		s.entries, err = spliceTail(s.entries, s.snapIndex, m.PrevIndex, m.Entries)
		if err != nil {
			return err
		}
	}
	return nil
}

// SaveSnapshot implements Storage.
func (s *MemStorage) SaveSnapshot(index, term int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = snapTail(s.entries, s.snapIndex, s.snapTerm, index, term)
	s.snapIndex, s.snapTerm = index, term
	s.snapData = append([]byte(nil), data...)
	return nil
}

// spliceTail applies TruncateAndAppend semantics to a tail slice whose
// first element has global index offset+1. It mirrors
// raftLog.appendAfter exactly: already-present same-term entries are
// kept (a stale redelivered AppendEntries must not shorten the persisted
// log), and only a term conflict truncates.
func spliceTail(tail []Entry, offset, prevIndex int, entries []Entry) ([]Entry, error) {
	if prevIndex < 0 {
		return tail, fmt.Errorf("raft: negative log index %d", prevIndex)
	}
	if prevIndex < offset {
		cut := offset - prevIndex
		if cut >= len(entries) {
			return tail, nil // everything is inside the snapshot already
		}
		entries = entries[cut:]
		prevIndex = offset
	}
	if prevIndex-offset > len(tail) {
		return tail, fmt.Errorf("raft: truncate beyond log: prev=%d offset=%d len=%d", prevIndex, offset, len(tail))
	}
	for i, e := range entries {
		pos := prevIndex - offset + i
		if pos < len(tail) {
			if tail[pos].Term == e.Term {
				continue // already persisted
			}
			tail = tail[:pos]
		}
		tail = append(tail, e)
	}
	return tail, nil
}

// Load implements Storage.
func (s *MemStorage) Load() (PersistentState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PersistentState{
		Term:      s.term,
		VotedFor:  s.votedFor,
		SnapIndex: s.snapIndex,
		SnapTerm:  s.snapTerm,
		SnapData:  append([]byte(nil), s.snapData...),
		Entries:   append([]Entry(nil), s.entries...),
	}, nil
}

// record is one entry in a FileStorage log.
type record struct {
	Kind      recordKind
	Term      int
	VotedFor  int
	PrevIndex int
	Entries   []Entry
	SnapIndex int
	SnapTerm  int
	SnapData  []byte
}

type recordKind int

const (
	recordState recordKind = iota + 1
	recordLog
	recordSnapshot
)

// frameHeaderSize is the per-record framing overhead: a uint32 payload
// length followed by a uint32 CRC-32 (IEEE) of the payload.
const frameHeaderSize = 8

// recordVersion is the version byte leading every record payload, so the
// on-disk layout can evolve: a decoder accepts versions it knows and
// rejects the rest, and additive changes append fields under a bumped
// version rather than silently shifting offsets (DESIGN.md §3.5).
const recordVersion = 1

// runAheadMin and runAheadMax bound the zero-filled region FileStorage
// keeps allocated past its last record: as much again as the file
// already holds, so the file doubles until the steady size, where a file
// taking 0.6 MB/s changes its length once every second or two instead
// of on every flush. A store holding less than runAheadMin lays none
// down — one that only ever takes a few records (a cluster set-up) would
// pay for it with a truncate at Close, and measurably.
const (
	runAheadMin = 4 << 10
	runAheadMax = 1 << 20
)

// sectorSize is the unit a crash is assumed to tear writes at: a
// file-aligned 512-byte sector holds either all of what a write put there
// or all of what it held before (DESIGN.md §3.5).
const sectorSize = 512

// zeroFill is the source of every run-ahead extension.
var zeroFill [runAheadMax]byte

// FileStorage is a log-structured on-disk store: every state change is a
// framed binary record written after the previous one, and Load replays
// the records. Each record is its own frame — [len][crc32][version][codec
// payload] — so Load can tell a torn final record (dropped, and the file
// is truncated back to the last complete record so later writes land on
// a clean tail) from interior corruption (a complete frame whose checksum
// or decode fails: surfaced as an error rather than silently swallowed).
//
// The file is not opened for append. Records overwrite, in place, a
// region the store has already filled with zeros and made durable (the
// run-ahead, [pos, alloc)), and the barrier is fdatasync: a flush that
// stays inside the run-ahead changes no metadata, so the barrier is a
// data write and a device flush, not a filesystem journal commit — and
// the two halves come apart: the flush starts its own bytes' write-out,
// and the SyncCoalescer round that covers it waits for each such file's
// and flushes the device once for all of them (inPlace below). Only the
// flush that uses the run-ahead up extends it, under the same single
// barrier. Load's recovery rules (DESIGN.md §3.5) are what make
// overwriting safe; Close truncates the run-ahead away, so a cleanly
// closed file is exactly the sum of its frames.
//
// Records are hand-rolled varint encodings (see wirecodec.go), framed in
// place in one buffer the store reuses across writes and that grows from
// empty to what a flush carries: a single record costs one write and one
// barrier, and AppendBatch amortizes both over the whole batch — the
// group-commit path the leader's proposal coalescing feeds.
type FileStorage struct {
	path  string
	f     *os.File
	buf   []byte // frames not yet written; they end at pos
	syncs atomic.Int64

	// pos is the end of the records encoded (buffered ones included),
	// counted from the frame sizes; alloc is the end of the run-ahead,
	// which is the file's size whenever it is past pos. They are valid
	// once ready is set: by Load, or by the first write to a store that
	// is empty.
	pos, alloc int64
	ready      bool

	// inPlace: the flush now at its barrier changed nothing but the bytes
	// of [synced, pos), all inside the run-ahead as the previous barrier
	// left it — durable zeros in written blocks — so writing those pages
	// back and flushing dev's cache through any file on it is the whole
	// barrier: the round waits for the pages and flushes. synced is pos at
	// the previous flush. overwrites is the filesystem's half
	// (overwritesInPlace), looked up by the first flush that needs it — a
	// set-up's few records never do, and it reads the mount table — and
	// cleared for good if the kernel refuses the call or a barrier fails;
	// the owner does that at its submit, a round leader at the wait, while
	// the owner is parked in the syncer. fsKnown && !overwrites is a file
	// flush no longer submits on.
	synced              int64
	dev                 uint64
	fsKnown, overwrites bool
	inPlace             bool

	// syncer is the SyncCoalescer every durability barrier goes through:
	// the store's own from OpenFileStorage, or the node's shared one
	// (SetSyncer), so one device barrier can cover several groups'
	// flushes. lastWidth remembers the width of the barrier that covered
	// the most recent flush; it is written and read only by the goroutine
	// that owns this store's writes (the persist worker), like the rest of
	// the struct.
	syncer    *SyncCoalescer
	lastWidth int
}

var _ Storage = (*FileStorage)(nil)

// OpenFileStorage opens (or creates) the store at path, on a
// SyncCoalescer of its own until SetSyncer shares the node's.
func OpenFileStorage(path string) (*FileStorage, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("raft: open storage: %w", err)
	}
	return &FileStorage{path: path, f: f, syncer: NewSyncCoalescer(SyncerConfig{})}, nil
}

// Close writes any buffered records, truncates the unused run-ahead away
// and releases the file handle.
func (s *FileStorage) Close() error {
	err := s.writeOut()
	if err == nil && s.ready && s.alloc > s.pos {
		err = s.f.Truncate(s.pos)
		s.alloc = s.pos
	}
	if err != nil {
		_ = s.f.Close()
		return fmt.Errorf("raft: close storage: %w", err)
	}
	return s.f.Close()
}

// Syncs reports how many fdatasync calls were issued on this store's
// file — the number the throughput harness divides by committed ops to
// show group-commit amortization. A flush a round covered by writing this
// file back and flushing the device through another counts on that other
// file, so over a node's stores the sum is its device flushes; rounds are
// counted on the SyncCoalescer.
func (s *FileStorage) Syncs() int64 { return s.syncs.Load() }

// SetSyncer routes this store's durability barriers through the node's
// shared SyncCoalescer (see syncer.go). Call before the node starts
// writing; a nil syncer gives the store a coalescer of its own again.
func (s *FileStorage) SetSyncer(sc *SyncCoalescer) {
	if sc == nil {
		sc = NewSyncCoalescer(SyncerConfig{})
	}
	s.syncer = sc
}

// SyncDevice implements SyncTarget: the per-file barrier, fdatasync — the
// only place this store asks the device for durability. Unlike the rest
// of FileStorage it may be called from the barrier leader's goroutine
// while the owner is parked on the syncer — the descriptor and the
// counter are both safe for that, and the owner wrote its buffered
// frames and any run-ahead extension before parking.
//
// It yields once before blocking. The syscall parks this goroutine's P
// with it until a steal or sysmon's retake, and a goroutine readied last
// — as the persist worker is by flush(), and a promoted round leader by
// handoff() — runs ahead of everything else its waker readied, so without
// the yield the apply worker and the clients that same pass woke sit out
// the barrier in the parked P's queue (DESIGN.md §3.7, "What runs before
// a barrier"). A caller must therefore not hold a lock across SyncDevice
// that a runnable goroutine needs.
func (s *FileStorage) SyncDevice() error {
	runtime.Gosched()
	return s.flushDevice()
}

// flushDevice is SyncDevice without the yield, for a round's closing
// flush: the write-back stage before it has already yielded.
func (s *FileStorage) flushDevice() error {
	if err := syncFile(opFdatasync, s.f, 0, 0); err != nil {
		return fmt.Errorf("raft: fdatasync: %w", err)
	}
	s.syncs.Add(1)
	return nil
}

// writeBack starts (opWriteBack: the owner's, in flush, a hint) or
// completes (opWriteBackWait: the round's, the guarantee, inPlace flushes
// only) writing a flush's bytes out and reports whether the file is still
// one a device flush will cover. A kernel or filesystem without the call
// clears overwrites for good — flush submits on the file no more, and it
// takes its own SyncDevice from this round on; any other failure is this
// flush's error.
func (s *FileStorage) writeBack(op string) (bool, error) {
	err := syncFile(op, s.f, s.synced, s.pos-s.synced)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, syscall.ENOSYS) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EOPNOTSUPP) {
		s.fsKnown, s.overwrites, s.inPlace = true, false, false
		return false, nil
	}
	return false, fmt.Errorf("raft: write back: %w", err)
}

// The durability syscalls, by the names syscallHook sees them under.
const opFdatasync, opWriteBack, opWriteBackWait = "fdatasync", "writeback", "writeback-wait"

// syscallHook, when a test sets it, runs in place of every durability
// syscall with the real one as do, to time it or fail it. syncFile is
// sysSync (fdatasync_*.go) behind it.
var syscallHook atomic.Pointer[func(op string, f *os.File, do func() error) error]

func syncFile(op string, f *os.File, off, n int64) error {
	if h := syscallHook.Load(); h != nil {
		return (*h)(op, f, func() error { return sysSync(op, f, off, n) })
	}
	return sysSync(op, f, off, n)
}

// LastBarrierWidth reports how many groups shared the durability barrier
// that covered this store's most recent flush (1 when it flew alone, as
// every flush on the store's own coalescer does). Read it from the
// goroutine that issued the flush.
func (s *FileStorage) LastBarrierWidth() int {
	if s.lastWidth < 1 {
		return 1
	}
	return s.lastWidth
}

// encodeRecord appends one framed record to buf without writing it. The
// header is reserved, the payload — [version][kind][varint fields] — is
// appended after it, and its length and checksum are patched in, so a
// steady-state append performs no heap allocation; each frame is
// self-contained so Load can validate records independently. A record
// that fails to encode leaves buf and pos as they were.
func (s *FileStorage) encodeRecord(r record) error {
	if !s.ready {
		// The file is not in append mode: a write lands where pos says,
		// and only Load knows where a non-empty file's records end.
		info, err := s.f.Stat()
		if err != nil {
			return fmt.Errorf("raft: persist: %w", err)
		}
		if info.Size() != 0 {
			return fmt.Errorf("raft: persist: write to non-empty store %s before Load", s.path)
		}
		s.ready = true
	}
	start := len(s.buf)
	buf, err := appendRecord(append(s.buf, make([]byte, frameHeaderSize)...), r)
	if err != nil {
		s.buf = buf[:start]
		return fmt.Errorf("raft: persist: %w", err)
	}
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	s.buf = buf
	s.pos += int64(len(buf) - start)
	return nil
}

// bufKeep is the most buffer capacity the store keeps between flushes: a
// large batch or snapshot is one write, and then its memory goes.
const bufKeep = 64 << 10

// writeOut hands the buffered frames to the kernel in one write, where
// they belong: just short of pos. They stay buffered if it fails.
func (s *FileStorage) writeOut() error {
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.f.WriteAt(s.buf, s.pos-int64(len(s.buf))); err != nil {
		return err
	}
	if cap(s.buf) > bufKeep {
		s.buf = nil
	} else {
		s.buf = s.buf[:0]
	}
	return nil
}

// appendRecord appends the binary payload of one record: the version
// byte, the kind, then the kind's fields in varint form.
func appendRecord(dst []byte, r record) ([]byte, error) {
	dst = append(dst, recordVersion, byte(r.Kind))
	switch r.Kind {
	case recordState:
		dst = bin.AppendInt(dst, r.Term)
		return bin.AppendInt(dst, r.VotedFor), nil
	case recordLog:
		dst = bin.AppendInt(dst, r.PrevIndex)
		return AppendWireEntries(dst, r.Entries)
	case recordSnapshot:
		dst = bin.AppendInt(dst, r.SnapIndex)
		dst = bin.AppendInt(dst, r.SnapTerm)
		return bin.AppendBytes(dst, r.SnapData), nil
	default:
		return dst, fmt.Errorf("unknown record kind %d", r.Kind)
	}
}

// decodeRecord parses an appendRecord payload. dec amortizes entry and
// command allocations across the replay.
func decodeRecord(payload []byte, dec *EntryDecoder) (record, error) {
	r := bin.NewReader(payload)
	if v := r.Byte(); v != recordVersion {
		if r.Err() == nil {
			return record{}, fmt.Errorf("unsupported record version %d", v)
		}
		return record{}, r.Err()
	}
	rec := record{Kind: recordKind(r.Byte())}
	switch rec.Kind {
	case recordState:
		rec.Term = r.Int()
		rec.VotedFor = r.Int()
	case recordLog:
		rec.PrevIndex = r.Int()
		var err error
		rec.Entries, err = dec.ReadEntries(r)
		if err != nil {
			return record{}, err
		}
	case recordSnapshot:
		rec.SnapIndex = r.Int()
		rec.SnapTerm = r.Int()
		rec.SnapData = r.Bytes()
	default:
		if r.Err() == nil {
			return record{}, fmt.Errorf("unknown record kind %d", rec.Kind)
		}
	}
	if err := r.Err(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// flush writes the buffered frames — over the run-ahead — and issues the
// durability barrier, exactly one however many records were encoded.
// When the records have come within a frame header of the end of the
// file (and fill its first runAheadMin bytes), the next run-ahead is
// written first, so the same barrier covers it and a record only ever
// lands on durable zeros or, when it outruns them, past the end of the
// file.
// The barrier is a SyncCoalescer round, the store's own or the node's
// shared one: the owner goroutine does the writes here and submits the
// new bytes for write-out before it queues — the device works through
// the round's yield and the round in progress, not after them — and the
// round that covers this file waits for that write-back when the flush
// is inPlace, or calls its SyncDevice. A failed submit is a failed
// barrier, without a round. A flush that extends the run-ahead or lands
// past it — every flush of a file under runAheadMin, and the first after
// Load truncated the run-ahead away — is not in place: it changes the
// file's size, which only the file's own fdatasync commits. Its submit
// still pays: under delayed allocation it allocates the new blocks in
// the journal transaction then running, so when another file's
// fdatasync commits that transaction, this one's finds it committed.
func (s *FileStorage) flush() error {
	if err := s.writeOut(); err != nil {
		return fmt.Errorf("raft: persist: %w", err)
	}
	extend := s.pos >= runAheadMin && s.pos+frameHeaderSize > s.alloc
	if extend {
		size := max(s.pos, s.alloc) // a frame that outran the run-ahead grew the file
		alloc := s.pos + min(s.pos, runAheadMax)
		if _, err := s.f.WriteAt(zeroFill[:alloc-size], size); err != nil {
			return fmt.Errorf("raft: persist: extend: %w", err)
		}
		s.alloc = alloc
	}
	s.inPlace = !extend && s.synced < s.pos && s.pos <= s.alloc
	if s.inPlace && !s.fsKnown {
		s.dev, s.overwrites = overwritesInPlace(s.f)
		s.fsKnown = true
	}
	s.inPlace = s.inPlace && s.overwrites
	var err error
	if s.synced < s.pos && (s.overwrites || !s.fsKnown) {
		_, err = s.writeBack(opWriteBack)
	}
	if err == nil {
		s.lastWidth, err = s.syncer.sync(s, s)
	}
	s.synced = s.pos
	if err != nil {
		s.fsKnown, s.overwrites = true, false // what is durable is no longer known
	}
	return err
}

func (s *FileStorage) append(r record) error {
	if err := s.encodeRecord(r); err != nil {
		return err
	}
	return s.flush()
}

// SetState implements Storage.
func (s *FileStorage) SetState(term, votedFor int) error {
	return s.append(record{Kind: recordState, Term: term, VotedFor: votedFor})
}

// TruncateAndAppend implements Storage.
func (s *FileStorage) TruncateAndAppend(prevIndex int, entries []Entry) error {
	return s.append(record{Kind: recordLog, PrevIndex: prevIndex, Entries: entries})
}

// AppendBatch implements Storage: the whole batch is encoded into the
// write buffer and made durable with a single barrier. A mutation that
// fails to encode takes the batch's earlier ones with it: nothing of a
// failed call is left to a later flush.
func (s *FileStorage) AppendBatch(muts []LogMutation) error {
	if len(muts) == 0 {
		return nil
	}
	buffered, pos := len(s.buf), s.pos
	for _, m := range muts {
		if err := s.encodeRecord(record{Kind: recordLog, PrevIndex: m.PrevIndex, Entries: m.Entries}); err != nil {
			s.buf, s.pos = s.buf[:buffered], pos
			return err
		}
	}
	return s.flush()
}

// SaveSnapshot implements Storage.
func (s *FileStorage) SaveSnapshot(index, term int, data []byte) error {
	return s.append(record{Kind: recordSnapshot, SnapIndex: index, SnapTerm: term, SnapData: data})
}

// errCorrupt marks an interior record that failed validation; a torn
// final record is not corruption (crashes tear tails) but a bad checksum
// or undecodable payload mid-file means the disk lied, and silently
// dropping the suffix would roll back acknowledged state.
var errCorrupt = errors.New("raft: corrupt storage record")

// Load implements Storage by replaying the framed record log. Call it
// before the first write; it may be called more than once. The log ends
// at the first of: the end of the file; an all-zero frame header (the
// run-ahead a crash left behind — a real frame is never empty); a frame
// whose length runs past the end of the file; a complete frame whose
// checksum fails and that holds a sector the interrupted flush never
// reached (tornFrame). Whatever follows that point is truncated away, so
// later writes continue from a clean tail and nothing after a torn
// record can come back. A complete frame that fails its checksum any
// other way, or passes it and does not decode, is interior corruption and
// surfaces as an error.
func (s *FileStorage) Load() (PersistentState, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return PersistentState{}, fmt.Errorf("raft: load storage: %w", err)
	}
	defer func() { _ = f.Close() }()
	info, err := f.Stat()
	if err != nil {
		return PersistentState{}, fmt.Errorf("raft: load storage: %w", err)
	}
	size := info.Size()
	br := bufio.NewReaderSize(f, int(min(size, 64<<10)))
	st := PersistentState{VotedFor: none}
	var dec EntryDecoder
	var valid int64 // offset just past the last fully-applied record
	// One buffer for header and payload, so a failed checksum can be
	// judged over the frame as it lies across the file's sectors.
	frame := make([]byte, frameHeaderSize, 4096)
	for recNo := 0; size-valid >= frameHeaderSize; recNo++ {
		hdr := frame[:frameHeaderSize]
		if _, err := io.ReadFull(br, hdr); err != nil {
			return st, fmt.Errorf("raft: load storage: %w", err)
		}
		if allZero(hdr) {
			break // run-ahead: the log ends here
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// Checked before the buffer is sized: a torn or garbage length
		// must not decide how much memory Load asks for.
		if length > size-valid-frameHeaderSize {
			break // torn tail: the frame was never written out whole
		}
		if frameHeaderSize+length > int64(cap(frame)) {
			frame = append(make([]byte, 0, frameHeaderSize+length), hdr...)
		}
		frame = frame[:frameHeaderSize+length]
		payload := frame[frameHeaderSize:]
		if _, err := io.ReadFull(br, payload); err != nil {
			return st, fmt.Errorf("raft: load storage: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if tornFrame(valid, frame) {
				break
			}
			return st, fmt.Errorf("%w %d: checksum mismatch", errCorrupt, recNo)
		}
		r, err := decodeRecord(payload, &dec)
		if err != nil {
			return st, fmt.Errorf("%w %d: %v", errCorrupt, recNo, err)
		}
		switch r.Kind {
		case recordState:
			st.Term, st.VotedFor = r.Term, r.VotedFor
		case recordLog:
			var serr error
			st.Entries, serr = spliceTail(st.Entries, st.SnapIndex, r.PrevIndex, r.Entries)
			if serr != nil {
				return st, fmt.Errorf("%w %d: %v", errCorrupt, recNo, serr)
			}
		case recordSnapshot:
			st.Entries = snapTail(st.Entries, st.SnapIndex, st.SnapTerm, r.SnapIndex, r.SnapTerm)
			st.SnapIndex, st.SnapTerm = r.SnapIndex, r.SnapTerm
			st.SnapData = r.SnapData
		default:
			return st, fmt.Errorf("%w %d: unknown kind %d", errCorrupt, recNo, r.Kind)
		}
		valid += frameHeaderSize + length
	}
	// Discard the run-ahead and any torn tail, so the next write starts
	// where the last good record ends: an intact record the torn one
	// preceded (sectors reach the disk in any order) was never
	// acknowledged and must not be replayed by a later Load.
	if size > valid {
		if err := s.f.Truncate(valid); err != nil {
			return st, fmt.Errorf("raft: truncate torn tail: %w", err)
		}
	}
	s.buf, s.pos, s.alloc, s.synced, s.ready = s.buf[:0], valid, valid, valid, true
	return st, nil
}

// tornFrame reports whether the complete frame at file offset off, whose
// checksum failed, is the work of an interrupted flush rather than of a
// lying disk: cut the frame where the file's sector boundaries cut it,
// and a piece that is all zero is a sector the flush never reached —
// records are only ever written over durable zeros or past the end of
// the file. A frame damaged any
// other way (flipped bits, garbage, a short write of non-zero data) has
// no such piece.
func tornFrame(off int64, frame []byte) bool {
	for len(frame) > 0 {
		n := min(int(sectorSize-off%sectorSize), len(frame))
		if allZero(frame[:n]) {
			return true
		}
		frame = frame[n:]
		off += int64(n)
	}
	return false
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
