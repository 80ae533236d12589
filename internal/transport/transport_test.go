package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/core"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/sim"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func localCluster(t *testing.T, n int, opts ...Option) []*Transport {
	t.Helper()
	trs, err := NewLocalCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})
	return trs
}

func TestSendRecvOverTCP(t *testing.T) {
	trs := localCluster(t, 2)
	// A connection that opens with the retired gob preamble is dropped,
	// and the transport goes on serving its peers.
	conn, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte{'G', 0x0f, 0xff, 0x81}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("'G' connection: read %d bytes, err %v; want it closed", n, err)
	}
	hello := raft.RequestVote{Term: 1, LastLogIndex: 2, LastLogTerm: 1}
	if err := trs[0].Send(1, hello); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || m.To != 1 || m.Payload != hello {
		t.Fatalf("got %+v", m)
	}
}

func TestSelfSendShortCircuits(t *testing.T) {
	trs := localCluster(t, 1)
	if err := trs[0].Send(0, 42); err != nil {
		t.Fatal(err)
	}
	m, err := trs[0].Recv(ctxT(t))
	if err != nil || m.Payload != 42 {
		t.Fatalf("got %v %v", m, err)
	}
}

func TestBroadcastOverTCP(t *testing.T) {
	const n = 4
	trs := localCluster(t, n)
	b := raft.RequestVoteReply{Term: 2, VoteGranted: true}
	if err := trs[2].Broadcast(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := trs[i].Recv(ctxT(t))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if m.From != 2 || m.Payload != b {
			t.Fatalf("node %d got %+v", i, m)
		}
	}
}

func TestStructuredPayloads(t *testing.T) {
	trs := localCluster(t, 2)
	want := raft.AppendEntries{
		Term: 3, LeaderID: 0, PrevLogIndex: 2, PrevLogTerm: 1,
		Entries:      []raft.Entry{{Term: 3, Command: raft.DS{Value: "v"}}},
		LeaderCommit: 2,
	}
	if err := trs[0].Send(1, want); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Payload.(raft.AppendEntries)
	if !ok {
		t.Fatalf("payload type %T", m.Payload)
	}
	if got.Term != want.Term || len(got.Entries) != 1 || got.Entries[0].Command.(raft.DS).Value != "v" {
		t.Fatalf("round-trip mangled: %+v", got)
	}
}

func TestSendInvalidDestination(t *testing.T) {
	trs := localCluster(t, 1)
	if err := trs[0].Send(5, "x"); err == nil {
		t.Fatal("invalid destination accepted")
	}
}

func TestRecvContextCancel(t *testing.T) {
	trs := localCluster(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trs[0].Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	trs := localCluster(t, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := trs[0].Recv(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := trs[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, msgnet.ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
	// Close is idempotent; Send after close fails locally.
	if err := trs[0].Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := trs[0].Send(0, "x"); !errors.Is(err, msgnet.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestSendToDeadPeerIsSilentDrop(t *testing.T) {
	trs := localCluster(t, 2)
	if err := trs[1].Close(); err != nil {
		t.Fatal(err)
	}
	// First send may succeed at the TCP layer (buffered) or fail to dial;
	// repeated sends must settle into silent drops, never an error.
	for i := 0; i < 5; i++ {
		if err := trs[0].Send(1, i); err != nil {
			t.Fatalf("send %d returned %v, want silent best-effort", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRaftClusterOverTCP(t *testing.T) {
	const n = 3
	trs := localCluster(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(42)
	kvs := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		kvs[id] = &raft.KVStore{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          trs[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   60 * time.Millisecond,
			HeartbeatInterval: 12 * time.Millisecond,
			StateMachine:      kvs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}

	// Elect, propose, and verify replication over real sockets.
	var idx int
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no progress over TCP")
		}
		leader := -1
		for id, node := range nodes {
			if node.Status().State == raft.Leader {
				leader = id
			}
		}
		if leader == -1 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var err error
		idx, err = nodes[leader].Propose(ctx, raft.KVCommand{Op: "set", Key: "net", Value: "tcp"})
		if err == nil {
			break
		}
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, kv := range kvs {
			if kv.AppliedIndex() < idx {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication did not complete over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id, kv := range kvs {
		if v, ok := kv.Get("net"); !ok || v != "tcp" {
			t.Fatalf("node %d: net=%q %v", id, v, ok)
		}
	}
}

func TestBenOrOverTCP(t *testing.T) {
	const n, tFaults = 3, 1
	trs := localCluster(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(7)
	inputs := []int{0, 1, 1}
	decisions := make([]core.Decision[int], n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			decisions[id], errs[id] = benor.RunDecomposed(ctx, trs[id], rng.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(500))
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	for id := 1; id < n; id++ {
		if decisions[id].Value != decisions[0].Value {
			t.Fatalf("agreement violated over TCP: %v", decisions)
		}
	}
}

// A frame larger than outBufSize leaves in one write and arrives whole,
// and the peer's write buffer does not keep the capacity it took: a
// snapshot transfer is not what the next heartbeat pays memory for.
func TestFrameOverOutBufSizeArrivesWhole(t *testing.T) {
	trs := localCluster(t, 2)
	want := raft.InstallSnapshot{Term: 4, LeaderID: 0, LastIncludedIndex: 90, LastIncludedTerm: 3, Data: make([]byte, 3*outBufSize)}
	for i := range want.Data {
		want.Data[i] = byte(i * 7)
	}
	for _, payload := range []any{want, raft.RequestVote{Term: 5}} {
		if err := trs[0].Send(1, payload); err != nil {
			t.Fatal(err)
		}
		m, err := trs[1].Recv(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Payload, payload) {
			t.Fatalf("%T arrived mangled", payload)
		}
		trs[0].mu.Lock()
		oc := trs[0].conns[1]
		held, capacity := len(oc.buf), cap(oc.buf)
		trs[0].mu.Unlock()
		if held != 0 || capacity > outBufSize {
			t.Fatalf("after a %T: buffer holds %d bytes with capacity %d, want 0 and at most %d", payload, held, capacity, outBufSize)
		}
	}
}
