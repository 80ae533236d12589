package transport

import (
	"encoding/binary"
	"maps"
	"reflect"
	"strings"
	"testing"

	"ooc/internal/codec"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

func exchange(t *testing.T, trs []*Transport, payload any) any {
	t.Helper()
	if err := trs[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	return m.Payload
}

// TestCodecInterop sends a full AppendEntries — command, read id and
// all — between two independently built transports, which must agree on
// every field. The binary codec is the only encoding either speaks.
func TestCodecInterop(t *testing.T) {
	msg := raft.AppendEntries{
		Term: 3, LeaderID: 0, PrevLogIndex: 5, PrevLogTerm: 2,
		Entries:      []raft.Entry{{Term: 3, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}}},
		LeaderCommit: 4, ReadID: 9,
	}
	t.Run("binary-to-binary", func(t *testing.T) {
		trs := localCluster(t, 2)
		if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
			t.Fatalf("got %#v, want %#v", got, msg)
		}
	})
}

func TestCodecCarriesMuxWrapper(t *testing.T) {
	trs := localCluster(t, 2)
	msg := msgnet.Tagged{Channel: "shard/2", Payload: raft.RequestVote{Term: 7, CandidateID: 1}}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v, want %#v", got, msg)
	}
}

// TestCodecForeignPayloadIsDropped: a payload outside the codec's set
// has no encoding, so Send refuses it with an error naming its type, and
// the next message still crosses the wire.
func TestCodecForeignPayloadIsDropped(t *testing.T) {
	trs := localCluster(t, 2)
	if err := trs[0].Send(1, "plain string"); err == nil || !strings.Contains(err.Error(), "string") {
		t.Fatalf("Send of a foreign payload: %v, want an error naming its type", err)
	}
	msg := raft.RequestVote{Term: 4}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v, want %#v", got, msg)
	}
}

// TestEncodeErrorKeepsConnection: an unencodable payload is the caller's
// bug, not a broken link, so the sender keeps its connection and the
// next message arrives over the same accepted stream, with no redial.
func TestEncodeErrorKeepsConnection(t *testing.T) {
	trs := localCluster(t, 2)
	msg := raft.RequestVote{Term: 4}
	exchange(t, trs, msg)
	trs[0].mu.Lock()
	oc := trs[0].conns[1]
	trs[0].mu.Unlock()
	trs[1].mu.Lock()
	accepted := maps.Clone(trs[1].inbound)
	trs[1].mu.Unlock()
	if oc == nil || len(accepted) != 1 {
		t.Fatalf("after one exchange: outbound %v, %d accepted connections", oc, len(accepted))
	}

	type foreign struct{ X int }
	if err := trs[0].Send(1, foreign{1}); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Fatalf("Send of a foreign payload: %v, want an error naming its type", err)
	}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v, want %#v", got, msg)
	}
	trs[0].mu.Lock()
	same := trs[0].conns[1] == oc
	trs[0].mu.Unlock()
	trs[1].mu.Lock()
	defer trs[1].mu.Unlock()
	if !same || !maps.Equal(trs[1].inbound, accepted) {
		t.Fatalf("encode error redialed: same outbound %v, accepted %d connections", same, len(trs[1].inbound))
	}
}

func TestCodecMetricsCountWireBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := localCluster(t, 2, WithMetrics(reg))
	msg := raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 12}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v", got)
	}
	enc := reg.Counter("codec_encode_bytes_total").Value()
	dec := reg.Counter("codec_decode_bytes_total").Value()
	if enc == 0 {
		t.Fatal("codec_encode_bytes_total did not count the send")
	}
	if dec == 0 {
		t.Fatal("codec_decode_bytes_total did not count the receive")
	}
	// The encode side counts frame + length header; decode counts the
	// frame alone, so encode is strictly larger but by only a few bytes.
	if dec >= enc || enc-dec > 8 {
		t.Fatalf("enc=%d dec=%d: expected dec < enc <= dec+8", enc, dec)
	}
}

// TestBinarySendsRecordWireBytes: a remote send counts its exact framed
// size — the codec frame and its varint length — and a self-send, which
// never reaches the wire, counts nothing.
func TestBinarySendsRecordWireBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := localCluster(t, 2, WithMetrics(reg))
	msg := raft.RequestVote{Term: 2, CandidateID: 0, LastLogIndex: 3, LastLogTerm: 1}
	frame, err := codec.Append(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	want := int64(binary.PutUvarint(hdr[:], uint64(len(frame))) + len(frame))

	if err := trs[0].Send(0, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := trs[0].Recv(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v", got)
	}
	if got := reg.Counter("codec_encode_bytes_total").Value(); got != want {
		t.Fatalf("codec_encode_bytes_total = %d, want the one remote frame's %d bytes", got, want)
	}
}
