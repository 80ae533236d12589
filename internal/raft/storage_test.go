package raft

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// The gob oracles in this package's tests carry these in Entry.Command.
func init() {
	for _, cmd := range []any{Noop{}, KVCommand{}, DS{}} {
		gob.Register(cmd)
	}
}

func TestMemStorageRoundTrip(t *testing.T) {
	s := NewMemStorage()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 0 || st.VotedFor != none || len(st.Entries) != 0 {
		t.Fatalf("fresh store: %+v", st)
	}
	if err := s.SetState(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(0, entries(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(2, entries(3)); err != nil {
		t.Fatal(err)
	}
	st, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 3 || st.VotedFor != 1 {
		t.Fatalf("state: %+v", st)
	}
	wantTerms := []int{1, 1, 3}
	if len(st.Entries) != len(wantTerms) {
		t.Fatalf("entries: %+v", st.Entries)
	}
	for i, want := range wantTerms {
		if st.Entries[i].Term != want {
			t.Fatalf("entry %d term %d, want %d", i, st.Entries[i].Term, want)
		}
	}
	// Load returns a copy.
	st.Entries[0].Term = 99
	st2, _ := s.Load()
	if st2.Entries[0].Term != 1 {
		t.Fatal("Load aliases internal storage")
	}
}

func TestMemStorageRejectsBadTruncate(t *testing.T) {
	s := NewMemStorage()
	if err := s.TruncateAndAppend(5, entries(1)); err == nil {
		t.Fatal("truncate beyond log accepted")
	}
	if err := s.TruncateAndAppend(-1, entries(1)); err == nil {
		t.Fatal("negative prev accepted")
	}
}

func TestFileStorageRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Load(); err != nil || st.Term != 0 || st.VotedFor != none {
		t.Fatalf("fresh file store: %+v %v", st, err)
	}
	if err := s.SetState(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(0, []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "a", Value: "1"}}, {Term: 2, Command: DS{Value: "x"}}}); err != nil {
		t.Fatal(err)
	}
	// Conflict repair: replace index 2.
	if err := s.TruncateAndAppend(1, []Entry{{Term: 3, Command: DS{Value: "y"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(3, 2); err != nil {
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
	if st.Term != 3 || st.VotedFor != 2 {
		t.Fatalf("state after reopen: %+v", st)
	}
	if len(st.Entries) != 2 || st.Entries[1].Term != 3 {
		t.Fatalf("entries after reopen: %+v", st.Entries)
	}
	if ds, ok := st.Entries[1].Command.(DS); !ok || ds.Value != "y" {
		t.Fatalf("command mangled: %+v", st.Entries[1])
	}
}

func TestFileStorageToleratesTornTail(t *testing.T) {
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
	// Simulate a crash mid-write: garbage bytes at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 7 || st.VotedFor != 1 {
		t.Fatalf("usable prefix lost: %+v", st)
	}
}

func TestNewNodeRestoresFromStorage(t *testing.T) {
	store := NewMemStorage()
	if err := store.SetState(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := store.TruncateAndAppend(0, entries(1, 4, 5)); err != nil {
		t.Fatal(err)
	}
	nw := netsim.New(3)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), Storage: store})
	if err != nil {
		t.Fatal(err)
	}
	if node.el.term != 5 || node.el.votedFor != 2 {
		t.Fatalf("restored state: term=%d vote=%d", node.el.term, node.el.votedFor)
	}
	if node.rep.log.lastIndex() != 3 || node.rep.log.lastTerm() != 5 {
		t.Fatalf("restored log: %v", &node.rep.log)
	}
}

func TestPersistedVoteSurvivesRestart(t *testing.T) {
	// A node that voted for candidate 1 in term 5, crashed, and restarted
	// must refuse a term-5 vote for anyone else — the election-safety
	// hazard persistence exists to prevent.
	nw := netsim.New(3, netsim.WithFIFO())
	store := NewMemStorage()
	if err := store.SetState(5, 1); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), Storage: store,
		ElectionTimeout: time.Hour, // keep it passive
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)

	if err := nw.Node(2).Send(0, RequestVote{Term: 5, CandidateID: 2, LastLogIndex: 9, LastLogTerm: 9}); err != nil {
		t.Fatal(err)
	}
	reply := recvReply(t, nw.Node(2))
	if reply.VoteGranted {
		t.Fatal("restarted node granted a second vote in the same term")
	}
	// The original candidate may ask again and be re-granted.
	if err := nw.Node(1).Send(0, RequestVote{Term: 5, CandidateID: 1, LastLogIndex: 9, LastLogTerm: 9}); err != nil {
		t.Fatal(err)
	}
	reply = recvReply(t, nw.Node(1))
	if !reply.VoteGranted {
		t.Fatal("idempotent re-grant to the original candidate denied")
	}
}

func recvReply(t *testing.T, ep msgnet.Endpoint) RequestVoteReply {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		m, err := ep.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		if r, ok := m.Payload.(RequestVoteReply); ok {
			return r
		}
	}
}

func TestFollowerCrashRecovery(t *testing.T) {
	c := newPipeCluster(t, 3, 31)
	idx := c.propose(KVCommand{Op: "set", Key: "pre", Value: "1"})
	c.waitApplied(idx, 0, 1, 2)

	leader := c.waitLeader(nil)
	victim := (leader + 1) % 3
	c.crash(victim)

	idx2 := c.propose(KVCommand{Op: "set", Key: "during", Value: "2"})
	rest := []int{}
	for id := 0; id < 3; id++ {
		if id != victim {
			rest = append(rest, id)
		}
	}
	c.waitApplied(idx2, rest...)

	c.restart(victim)
	c.waitApplied(idx2, victim)
	for _, key := range []string{"pre", "during"} {
		if _, ok := c.kvs[victim].Get(key); !ok {
			t.Fatalf("recovered node missing %q", key)
		}
	}
	// The restarted node must have restored (not re-learned from scratch)
	// its persisted term.
	if st := c.nodes[victim].Status(); st.Term == 0 {
		t.Fatalf("restarted node lost its term: %v", st)
	}
}

func TestLeaderCrashRecoveryRejoinsAsFollower(t *testing.T) {
	c := newPipeCluster(t, 3, 37)
	idx := c.propose(KVCommand{Op: "set", Key: "epoch", Value: "1"})
	c.waitApplied(idx, 0, 1, 2)

	oldLeader := c.waitLeader(nil)
	c.crash(oldLeader)
	c.waitLeader(map[int]bool{oldLeader: true})

	// Commit through the survivors: a raw Propose can lose its entry to a
	// concurrent election, so use the retrying client, which waits for
	// the entry to actually apply.
	var survivors []*Node
	for id, node := range c.nodes {
		if id != oldLeader {
			survivors = append(survivors, node)
		}
	}
	client, err := NewClient(survivors)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	idx2, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "epoch", Value: "2"})
	if err != nil {
		t.Fatal(err)
	}

	c.restart(oldLeader)
	c.waitApplied(idx2, 0, 1, 2)
	if v, _ := c.kvs[oldLeader].Get("epoch"); v != "2" {
		t.Fatalf("recovered ex-leader sees epoch=%q", v)
	}
	// Committed history must be identical everywhere.
	for id := 0; id < 3; id++ {
		if v, ok := c.kvs[id].Get("epoch"); !ok || v != "2" {
			t.Fatalf("node %d: epoch=%q %v", id, v, ok)
		}
	}
}

func TestRepeatedCrashRecoveryCycles(t *testing.T) {
	c := newPipeCluster(t, 3, 41)
	var idx int
	for cycle := 0; cycle < 3; cycle++ {
		idx = c.propose(KVCommand{Op: "set", Key: "cycle", Value: string(rune('a' + cycle))})
		leader := c.waitLeader(nil)
		victim := (leader + 1 + cycle) % 3
		// Let the entry commit on the surviving majority first; Propose
		// returns at append time, and an entry only present on the victim
		// would legitimately die with it.
		var others []int
		for id := 0; id < 3; id++ {
			if id != victim {
				others = append(others, id)
			}
		}
		c.waitApplied(idx, others...)
		c.crash(victim)
		c.restart(victim)
		c.waitApplied(idx, 0, 1, 2)
	}
	for id := 0; id < 3; id++ {
		if v, _ := c.kvs[id].Get("cycle"); v != "c" {
			t.Fatalf("node %d: cycle=%q", id, v)
		}
	}
}

// TestProposeRefusesForeignCommand: a command outside the closed set,
// bare or inside a D&S, is refused at Propose with its type named,
// before it enters the log — on a netsim node, and on a FileStorage node
// whose next flush it would otherwise fail — and the node goes on
// serving.
func TestProposeRefusesForeignCommand(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			var files []*FileStorage
			var opts []func(*Config)
			if disk {
				dir := t.TempDir()
				opts = append(opts, func(cfg *Config) {
					fs, err := OpenFileStorage(filepath.Join(dir, fmt.Sprintf("n%d.wal", cfg.ID)))
					if err != nil {
						t.Fatal(err)
					}
					files = append(files, fs)
					cfg.Storage = fs
				})
			}
			c := newCluster(t, 3, 53, opts...)
			t.Cleanup(func() {
				c.cancel()
				for _, nd := range c.nodes {
					<-nd.Done()
				}
				for _, fs := range files {
					_ = fs.Close()
				}
			})
			c.waitApplied(c.propose(KVCommand{Op: "set", Key: "a", Value: "1"}), 0, 1, 2)
			leader := c.waitLeader()
			before := c.nodes[leader].Status().LogLength
			for _, cmd := range []any{customCmd{N: 1}, DS{Value: customCmd{N: 2}}} {
				_, err := c.nodes[leader].Propose(c.ctx, cmd)
				if err == nil || !strings.Contains(err.Error(), "raft.customCmd") {
					t.Fatalf("Propose(%#v) = %v, want a refusal naming raft.customCmd", cmd, err)
				}
			}
			if got := c.nodes[leader].Status().LogLength; got != before {
				t.Fatalf("log length %d after the refusals, want %d", got, before)
			}
			c.waitApplied(c.propose(KVCommand{Op: "set", Key: "b", Value: "2"}), 0, 1, 2)
		})
	}
}
