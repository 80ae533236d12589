package codec

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"ooc/internal/benor"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

type foreignMsg struct {
	Round int
	Est   []int
}

// The gob oracle boxes every wire message, and the commands inside
// entries, in an interface.
func init() {
	for _, msg := range wireMessages() {
		gob.Register(msg)
	}
	for _, cmd := range []any{raft.Noop{}, raft.KVCommand{}, raft.DS{}} {
		gob.Register(cmd)
	}
}

func wireMessages() []any {
	return []any{
		raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 10, LastLogTerm: 2},
		raft.RequestVoteReply{Term: 3, VoteGranted: true},
		raft.RequestVote{Term: 4, CandidateID: 2, LastLogIndex: 11, LastLogTerm: 3, Pre: true},
		raft.RequestVoteReply{Term: 4, VoteGranted: false, Pre: true},
		raft.AppendEntries{
			Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
			Entries: []raft.Entry{
				{Term: 5, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}},
				{Term: 5, Command: raft.Noop{}},
				{Term: 5, Command: raft.DS{Value: "decided"}},
			},
			LeaderCommit: 8, ReadID: 41,
		},
		raft.AppendEntries{Term: 5, LeaderID: 0, PrevLogIndex: 12, PrevLogTerm: 5, LeaderCommit: 12, ReadID: 42}, // heartbeat
		raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12, RejectHint: 0, ReadID: 42},
		raft.AppendEntriesReply{Term: 5, Success: false, MatchIndex: 0, RejectHint: 7},
		raft.ReadIndexRequest{Term: 5, ID: 77, Lease: true},
		raft.ReadIndexReply{Term: 5, ID: 77, Index: 12, Success: true, Lease: true, LeaderID: 2},
		raft.ReadIndexReply{Term: 6, ID: 78, Success: false, LeaderID: -1}, // refusal with no known leader
		raft.InstallSnapshot{Term: 6, LeaderID: 2, LastIncludedIndex: 100, LastIncludedTerm: 5, Data: []byte("snap")},
		raft.InstallSnapshot{Term: 6, LeaderID: 2, LastIncludedIndex: 100, LastIncludedTerm: 5}, // nil data
		msgnet.Tagged{Channel: "shard/3", Payload: raft.RequestVote{Term: 2, CandidateID: 1}},
		msgnet.Tagged{Channel: "shard/0", Payload: raft.AppendEntries{
			Term: 1, Entries: []raft.Entry{{Term: 1, Command: raft.KVCommand{Op: "get", Key: "x"}}},
		}},
		benor.Report[int]{Round: 9, Value: 1},
		benor.Ratify[int]{Round: 9, Value: 0, HasValue: true},
		benor.Ratify[int]{Round: 10}, // the question mark <2, ?>
		msgnet.Tagged{Channel: "benor/1", Payload: benor.Report[int]{Round: 2, Value: 0}},
	}
}

func TestFrameRoundTripAllWireTypes(t *testing.T) {
	var dec Decoder
	for i, msg := range wireMessages() {
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("case %d (%T): encode: %v", i, msg, err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("case %d (%T): decode: %v", i, msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("case %d: round trip = %#v, want %#v", i, got, msg)
		}
	}
}

// TestBenOrGoldenFrames pins the exact bytes of the Ben-Or frames; a
// round trip alone cannot see a frame change.
func TestBenOrGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		msg  any
		want string
	}{
		{benor.Report[int]{Round: 9, Value: 1}, "010b1202"},
		{benor.Ratify[int]{Round: 9, Value: 0, HasValue: true}, "010c120001"},
		{benor.Ratify[int]{Round: 10}, "010c140000"},
		{msgnet.Tagged{Channel: "benor/1", Payload: benor.Report[int]{Round: 2, Value: 0}}, "01140762656e6f722f310b0400"},
	} {
		frame, err := Append(nil, c.msg)
		if err != nil {
			t.Fatalf("%#v: %v", c.msg, err)
		}
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("%#v: frame %s, want %s", c.msg, got, c.want)
		}
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	var dec Decoder
	good, err := Append(nil, raft.RequestVoteReply{Term: 1, VoteGranted: true})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {99, tRequestVote, 2, 2, 2, 2},
		"unknown tag":      {Version, 29},
		"truncated body":   good[:len(good)-1],
		"trailing bytes":   append(append([]byte{}, good...), 0xFF),
		"huge entry count": {Version, tAppendEntries, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, frame := range cases {
		if _, err := dec.Decode(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestAppendRefusesForeignPayload: the message set is closed. A payload
// outside it, at the top or inside the mux wrapper, has no encoding, and
// the error names its type.
func TestAppendRefusesForeignPayload(t *testing.T) {
	for _, c := range []struct {
		msg  any
		name string
	}{
		{foreignMsg{Round: 9}, "codec.foreignMsg"},
		{msgnet.Tagged{Channel: "benor/1", Payload: foreignMsg{Round: 2}}, "codec.foreignMsg"},
		{"hello", "string"},
	} {
		if _, err := Append(nil, c.msg); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Fatalf("%#v: err = %v, want a refusal naming %s", c.msg, err, c.name)
		}
	}
}

// TestRetiredTagsDecodeAsUnknown: tags 3 and 4 (PreVote and its reply,
// now RequestVote and RequestVoteReply with Pre set), tag 8
// (ReadIndexReply without its LeaderID) and tag 31 (the gob fallback
// frame) are retired, and a frame carrying any of them is refused like
// any unknown tag.
func TestRetiredTagsDecodeAsUnknown(t *testing.T) {
	var dec Decoder
	for _, tag := range []byte{3, 4, 8, 31} {
		_, err := dec.Decode([]byte{Version, tag, 10, 2, 24, 1, 0})
		if err == nil || !strings.Contains(err.Error(), "unknown type tag") {
			t.Fatalf("tag %d: err = %v, want unknown type tag", tag, err)
		}
	}
}

func TestDecodeMatchesGobOracle(t *testing.T) {
	// Differential check: everything the codec round-trips must equal
	// what a gob round trip of the same value produces (gob, the encoding
	// the codec replaced on the wire, stays as the in-process oracle).
	for i, msg := range wireMessages() {
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		var dec Decoder
		viaCodec, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		viaGob := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("case %d (%T): codec %#v != gob %#v", i, msg, viaCodec, viaGob)
		}
	}
}

func gobRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		t.Fatal(err)
	}
	var v any
	if err := gob.NewDecoder(&buf).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEncodeZeroAlloc(t *testing.T) {
	// Steady-state replication traffic — AppendEntries with entries,
	// heartbeats, replies, and the mux-wrapped variants — must encode
	// without heap allocation once the buffer is warm.
	msgs := []any{
		raft.AppendEntries{
			Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
			Entries:      []raft.Entry{{Term: 5, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}}},
			LeaderCommit: 8, ReadID: 41,
		},
		raft.AppendEntries{Term: 5, LeaderID: 0, PrevLogIndex: 12, PrevLogTerm: 5, LeaderCommit: 12},
		raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12},
		raft.RequestVote{Term: 3, CandidateID: 1},
		msgnet.Tagged{Channel: "shard/1", Payload: raft.AppendEntriesReply{Term: 5, Success: true}},
	}
	for _, msg := range msgs {
		msg := msg
		dst := make([]byte, 0, 1024)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = Append(dst[:0], msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%T: encode allocates %.1f/op; want 0", msg, allocs)
		}
	}
}
