package codec

import (
	"reflect"
	"testing"

	"ooc/internal/benor"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

// FuzzCodecRoundTrip drives fuzzed field values through every native
// wire type: encode must succeed and decode must return the identical
// message. The fuzzer explores varint boundaries (negative values,
// multi-byte lengths) and string contents the unit tests cannot
// enumerate.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(3, 1, 10, 2, 8, 41, "set", "key", "value", uint8(1), uint8(0))
	f.Add(-1, 0, 0, 0, -5, 0, "", "", "", uint8(0), uint8(3))
	f.Add(1<<40, 2, 1<<32, 7, 99, -3, "delete", "k\x00n", "\xff\xfe", uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g int, op, key, val string, nEntries, kind uint8) {
		es := make([]raft.Entry, int(nEntries)%8)
		for i := range es {
			es[i] = raft.Entry{Term: a + i, Command: raft.KVCommand{Op: op, Key: key, Value: val}}
		}
		var msg any
		switch kind % 12 {
		case 0:
			msg = raft.RequestVote{Term: a, CandidateID: b, LastLogIndex: c, LastLogTerm: d}
		case 1:
			msg = raft.RequestVoteReply{Term: a, VoteGranted: b&1 == 0}
		case 2:
			msg = raft.RequestVote{Term: a, CandidateID: b, LastLogIndex: c, LastLogTerm: d, Pre: true}
		case 3:
			msg = raft.RequestVoteReply{Term: a, VoteGranted: b&1 == 0, Pre: true}
		case 4:
			msg = raft.AppendEntries{Term: a, LeaderID: b, PrevLogIndex: c, PrevLogTerm: d, Entries: es, LeaderCommit: e, ReadID: g}
		case 5:
			msg = raft.AppendEntriesReply{Term: a, Success: b&1 == 0, MatchIndex: c, RejectHint: d, ReadID: g}
		case 6:
			msg = raft.ReadIndexRequest{Term: a, ID: int64(e), Lease: b&1 == 0}
		case 7:
			msg = raft.ReadIndexReply{Term: a, ID: int64(e), Index: c, Success: b&1 == 0, Lease: d&1 == 0}
		case 8:
			var data []byte
			if len(val) > 0 {
				data = []byte(val)
			}
			msg = raft.InstallSnapshot{Term: a, LeaderID: b, LastIncludedIndex: c, LastIncludedTerm: d, Data: data}
		case 9:
			msg = msgnet.Tagged{Channel: op, Payload: raft.AppendEntries{Term: a, Entries: es}}
		case 10:
			msg = benor.Report[int]{Round: a, Value: b}
		case 11:
			msg = benor.Ratify[int]{Round: a, Value: b, HasValue: c&1 == 0}
		}
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("encode %#v: %v", msg, err)
		}
		var dec Decoder
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %#v: %v", msg, err)
		}
		if len(es) == 0 {
			// Empty entry slices decode as nil; normalize before comparing.
			switch m := msg.(type) {
			case raft.AppendEntries:
				m.Entries = nil
				msg = m
			case msgnet.Tagged:
				if ae, ok := m.Payload.(raft.AppendEntries); ok {
					ae.Entries = nil
					m.Payload = ae
					msg = m
				}
			}
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip = %#v, want %#v", got, msg)
		}
	})
}

// FuzzCodecDecode feeds arbitrary bytes to the decoder: it must never
// panic and never allocate absurdly (the length-guarded Reader enforces
// that), and anything it does accept must re-encode and re-decode to
// the same value — corrupt input either errors out or round-trips.
func FuzzCodecDecode(f *testing.F) {
	for _, msg := range []any{
		raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 10, LastLogTerm: 2},
		raft.AppendEntries{
			Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
			Entries:      []raft.Entry{{Term: 5, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}}},
			LeaderCommit: 8, ReadID: 41,
		},
		raft.InstallSnapshot{Term: 6, LeaderID: 2, LastIncludedIndex: 100, LastIncludedTerm: 5, Data: []byte("snap")},
		msgnet.Tagged{Channel: "shard/3", Payload: raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12}},
	} {
		frame, err := Append(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, tAppendEntries, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		msg, err := dec.Decode(data)
		if err != nil {
			return // rejected, as corrupt input should be
		}
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("accepted message %#v does not re-encode: %v", msg, err)
		}
		again, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("re-decode = %#v, want %#v", again, msg)
		}
	})
}
