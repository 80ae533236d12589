// Package codec is the hand-rolled binary wire format for the repo's
// message traffic: the Raft messages, Ben-Or's two messages and the
// msgnet mux wrapper encode as a compact length-free frame of varints —
// no type metadata, no reflection — with an explicit version byte so the
// layout can evolve (DESIGN.md §3.5). Encoding is append-style into a
// caller-owned buffer and performs zero heap allocations in steady
// state; decoding amortizes through a reusable Decoder. The set is
// closed: Append refuses any other payload type.
//
// Frame layout (the body of a transport frame or a storage record —
// outer length prefixes and checksums belong to those layers):
//
//	[Version byte][type tag byte][tag-specific body]
//
// Integers are zigzag varints, strings are [uvarint len][bytes], byte
// slices are [uvarint len+1][bytes] with 0 meaning nil (see
// internal/codec/bin). Tag values are wire format: new types append,
// existing tags are never renumbered.
package codec

import (
	"fmt"

	"ooc/internal/benor"
	"ooc/internal/codec/bin"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

// Version leads every untraced frame. A decoder accepts versions it
// knows and rejects the rest; additive format changes bump it rather
// than silently shifting field offsets.
const Version = 1

// VersionTraced frames carry a per-request trace ID (internal/rtrace)
// between the version byte and the type tag:
//
//	[2][uvarint trace id][type tag byte][body]
//
// Untraced messages keep emitting Version-1 frames byte-identical to
// the release before the trace field, so a sender speaks version 2 only
// on the (sampled) messages that need it, and the decoder takes both
// (DESIGN §3.6).
const VersionTraced = 2

// Type tags. Wire format — never renumber; new message types append.
// Retired, never to be reused: 3 and 4 (PreVote and its reply, now the
// Pre flag of tags 1 and 2), 8 (ReadIndexReply without LeaderID) and 31
// (the gob fallback frame).
const (
	tRequestVote        = 1
	tRequestVoteReply   = 2
	tAppendEntries      = 5
	tAppendEntriesReply = 6
	tReadIndexRequest   = 7
	tInstallSnapshot    = 9
	tReadIndexReply     = 10
	tBenOrReport        = 11
	tBenOrRatify        = 12
	tTagged             = 20 // msgnet.Tagged: [string channel][nested frame body]
)

// Append appends the frame for msg — version byte, type tag, body — and
// returns the extended buffer. It is allocation-free once dst has warmed
// to steady-state capacity, and returns an error for a payload type
// outside the codec's set.
//
// A msgnet.Traced wrapper (top level or directly inside msgnet.Tagged)
// is hoisted into the frame header: the frame becomes VersionTraced and
// the trace ID rides as a header uvarint, never as an encoded wrapper
// type. Everything else emits Version 1, byte-identical to before the
// trace field existed.
func Append(dst []byte, msg any) ([]byte, error) {
	id, inner := hoistTrace(msg)
	if id != 0 {
		dst = append(dst, VersionTraced)
		dst = bin.AppendUvarint(dst, id)
		return appendBody(dst, inner)
	}
	dst = append(dst, Version)
	return appendBody(dst, inner)
}

// hoistTrace extracts the trace ID a payload carries, returning the
// payload with the wrapper removed. Only the two shapes the stack
// produces are recognized: Traced{msg} and Tagged{ch, Traced{msg}}.
func hoistTrace(msg any) (uint64, any) {
	switch m := msg.(type) {
	case msgnet.Traced:
		return m.ID, m.Payload
	case msgnet.Tagged:
		if t, ok := m.Payload.(msgnet.Traced); ok {
			return t.ID, msgnet.Tagged{Channel: m.Channel, Payload: t.Payload}
		}
	}
	return 0, msg
}

// rewrapTrace reverses hoistTrace after decode so receivers see the
// same shape the sender handed to Append.
func rewrapTrace(msg any, id uint64) any {
	if t, ok := msg.(msgnet.Tagged); ok {
		return msgnet.Tagged{Channel: t.Channel, Payload: msgnet.Traced{ID: id, Payload: t.Payload}}
	}
	return msgnet.Traced{ID: id, Payload: msg}
}

func appendBody(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case raft.RequestVote:
		dst = append(dst, tRequestVote)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.CandidateID)
		dst = bin.AppendInt(dst, m.LastLogIndex)
		dst = bin.AppendInt(dst, m.LastLogTerm)
		return bin.AppendBool(dst, m.Pre), nil
	case raft.RequestVoteReply:
		dst = append(dst, tRequestVoteReply)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendBool(dst, m.VoteGranted)
		return bin.AppendBool(dst, m.Pre), nil
	case raft.AppendEntries:
		dst = append(dst, tAppendEntries)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.LeaderID)
		dst = bin.AppendInt(dst, m.PrevLogIndex)
		dst = bin.AppendInt(dst, m.PrevLogTerm)
		dst = bin.AppendInt(dst, m.LeaderCommit)
		dst = bin.AppendInt(dst, m.ReadID)
		return raft.AppendWireEntries(dst, m.Entries)
	case raft.AppendEntriesReply:
		dst = append(dst, tAppendEntriesReply)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendBool(dst, m.Success)
		dst = bin.AppendInt(dst, m.MatchIndex)
		dst = bin.AppendInt(dst, m.RejectHint)
		return bin.AppendInt(dst, m.ReadID), nil
	case raft.ReadIndexRequest:
		dst = append(dst, tReadIndexRequest)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendVarint(dst, m.ID)
		return bin.AppendBool(dst, m.Lease), nil
	case raft.ReadIndexReply:
		dst = append(dst, tReadIndexReply)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendVarint(dst, m.ID)
		dst = bin.AppendInt(dst, m.Index)
		dst = bin.AppendBool(dst, m.Success)
		dst = bin.AppendBool(dst, m.Lease)
		return bin.AppendInt(dst, m.LeaderID), nil
	case raft.InstallSnapshot:
		dst = append(dst, tInstallSnapshot)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.LeaderID)
		dst = bin.AppendInt(dst, m.LastIncludedIndex)
		dst = bin.AppendInt(dst, m.LastIncludedTerm)
		return bin.AppendBytes(dst, m.Data), nil
	case benor.Report[int]:
		dst = append(dst, tBenOrReport)
		dst = bin.AppendInt(dst, m.Round)
		return bin.AppendInt(dst, m.Value), nil
	case benor.Ratify[int]:
		dst = append(dst, tBenOrRatify)
		dst = bin.AppendInt(dst, m.Round)
		dst = bin.AppendInt(dst, m.Value)
		return bin.AppendBool(dst, m.HasValue), nil
	case msgnet.Tagged:
		// The mux wrapper nests: the inner payload is a full body (tag +
		// fields) without a repeated version byte.
		dst = append(dst, tTagged)
		dst = bin.AppendString(dst, m.Channel)
		return appendBody(dst, m.Payload)
	default:
		return dst, fmt.Errorf("codec: payload type %T has no wire encoding", msg)
	}
}

// A Decoder decodes frames, amortizing allocations across messages: log
// entry strings and commands intern through the embedded
// raft.EntryDecoder. A zero Decoder is ready to use; it is not safe for
// concurrent use — give each receive loop its own.
type Decoder struct {
	ents raft.EntryDecoder
}

// Decode parses one frame and returns the boxed message. Entry slices
// in an AppendEntries are freshly allocated — the caller (a raft node
// appending them to its log) owns them outright.
func (d *Decoder) Decode(frame []byte) (any, error) {
	r := bin.NewReader(frame)
	traceID, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	msg, err := d.readBody(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after frame", r.Len())
	}
	if traceID != 0 {
		msg = rewrapTrace(msg, traceID)
	}
	return msg, nil
}

// readHeader consumes the version byte (and, for VersionTraced frames,
// the trace ID uvarint), leaving r at the type tag.
func readHeader(r *bin.Reader) (uint64, error) {
	v := r.Byte()
	if r.Err() != nil {
		return 0, r.Err()
	}
	switch v {
	case Version:
		return 0, nil
	case VersionTraced:
		id := r.Uvarint()
		return id, r.Err()
	default:
		return 0, fmt.Errorf("codec: unsupported frame version %d", v)
	}
}

func (d *Decoder) readBody(r *bin.Reader) (any, error) {
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case tRequestVote:
		m := raft.RequestVote{Term: r.Int(), CandidateID: r.Int(), LastLogIndex: r.Int(), LastLogTerm: r.Int(), Pre: r.Bool()}
		return m, r.Err()
	case tRequestVoteReply:
		m := raft.RequestVoteReply{Term: r.Int(), VoteGranted: r.Bool(), Pre: r.Bool()}
		return m, r.Err()
	case tAppendEntries:
		m := raft.AppendEntries{Term: r.Int(), LeaderID: r.Int(), PrevLogIndex: r.Int(), PrevLogTerm: r.Int(), LeaderCommit: r.Int(), ReadID: r.Int()}
		var err error
		if m.Entries, err = d.ents.ReadEntries(r); err != nil {
			return nil, err
		}
		return m, r.Err()
	case tAppendEntriesReply:
		m := raft.AppendEntriesReply{Term: r.Int(), Success: r.Bool(), MatchIndex: r.Int(), RejectHint: r.Int(), ReadID: r.Int()}
		return m, r.Err()
	case tReadIndexRequest:
		m := raft.ReadIndexRequest{Term: r.Int(), ID: r.Varint(), Lease: r.Bool()}
		return m, r.Err()
	case tReadIndexReply:
		m := raft.ReadIndexReply{Term: r.Int(), ID: r.Varint(), Index: r.Int(), Success: r.Bool(), Lease: r.Bool(), LeaderID: r.Int()}
		return m, r.Err()
	case tInstallSnapshot:
		m := raft.InstallSnapshot{Term: r.Int(), LeaderID: r.Int(), LastIncludedIndex: r.Int(), LastIncludedTerm: r.Int(), Data: r.Bytes()}
		return m, r.Err()
	case tBenOrReport:
		m := benor.Report[int]{Round: r.Int(), Value: r.Int()}
		return m, r.Err()
	case tBenOrRatify:
		m := benor.Ratify[int]{Round: r.Int(), Value: r.Int(), HasValue: r.Bool()}
		return m, r.Err()
	case tTagged:
		ch := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		inner, err := d.readBody(r)
		if err != nil {
			return nil, err
		}
		return msgnet.Tagged{Channel: ch, Payload: inner}, nil
	default:
		return nil, fmt.Errorf("codec: unknown type tag %d", tag)
	}
}
