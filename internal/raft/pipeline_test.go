package raft

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/netsim"
	"ooc/internal/sim"
)

func TestDrainProposalsCoalescesUpToCap(t *testing.T) {
	b := mailbox{wake: make(chan struct{}, 1)}
	push := func(cmd int) {
		b.mu.Lock()
		b.proposals = append(b.proposals, proposeReq{cmd: cmd})
		b.ring()
	}
	const limit = maxProposalBatch
	for i := 0; i < limit+2; i++ {
		push(i)
	}
	var in inputs
	if more := b.take(&in); !more || len(in.proposals) != limit {
		t.Fatalf("took %d proposals (more=%v), want the cap of %d and more", len(in.proposals), more, limit)
	}
	for i, r := range in.proposals {
		if r.cmd != i {
			t.Fatalf("batch[%d] = %v, want %d (FIFO order)", i, r.cmd, i)
		}
	}
	if left := len(b.proposals); left != 2 {
		t.Fatalf("%d proposals left queued, want 2", left)
	}
	// What the cap left behind leads the next take, without a new ring.
	push(limit + 2)
	push(limit + 3)
	if more := b.take(&in); more || len(in.proposals) != 4 || in.proposals[0].cmd != limit || in.proposals[3].cmd != limit+3 {
		t.Fatalf("second take got %v (more=%v), want the 4 remaining, %d..%d", in.proposals, more, limit, limit+3)
	}
	if b.take(&in) || len(in.proposals) != 0 {
		t.Fatalf("take from an empty box returned %v", in.proposals)
	}
}

// TestReplicationWindowOnTheWire drives a leader against a hand-operated
// follower endpoint and checks the pipeline invariants as they appear on
// the wire: no AppendEntries carries more than maxEntriesPerAppend
// entries, and never more than maxInflightAppends entry-carrying messages
// are outstanding between acknowledgements — also while ReadIndex rounds
// run, whose probes the follower answers at once like a real one does
// (success, acknowledging only what it has already acknowledged). The
// follower holds the first full window until every proposal is in the
// leader's log, so the backlog behind it leaves in windows of the entry
// cap and both caps are reached. Once reads flow, the follower sits on
// each full window until it has answered two probes: a reply that
// acknowledges no append must not open a window slot, and if the first
// did, the extra append is on the wire before the second probe.
func TestReplicationWindowOnTheWire(t *testing.T) {
	const (
		maxEntries  = maxEntriesPerAppend
		maxInflight = maxInflightAppends
		total       = maxInflight*maxEntries + 44 // proposals; the log also holds the term-opening no-op
	)
	nw := netsim.New(2, netsim.WithSeed(11), netsim.WithFIFO())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rng := sim.NewRNG(11)
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: rng.Fork(0),
		ElectionTimeout:   20 * time.Millisecond,
		HeartbeatInterval: time.Minute, // keep ticks (and stall rewinds) out of the way
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(ctx)

	peer := nw.Node(1)
	var (
		log       []Entry
		acked     int // highest MatchIndex released to the leader
		unacked   int
		maxSeen   int
		maxBatch  int // most entries one AppendEntries carried
		probes    int // answered while the current window was full
		held      int // full windows held across two probes
		proposing bool
		proposed  = make(chan struct{}) // closed once every Propose has returned
		pendAcks  []AppendEntriesReply
	)
	release := func() {
		for _, a := range pendAcks {
			_ = peer.Send(0, a)
		}
		pendAcks, unacked, probes = nil, 0, 0
		acked = len(log)
	}
	var reads atomic.Int64
	for len(log) < total+1 || reads.Load() == 0 {
		m, err := peer.Recv(ctx)
		if err != nil {
			t.Fatalf("peer recv (log=%d, reads=%d): %v", len(log), reads.Load(), err)
		}
		switch p := m.Payload.(type) {
		case RequestVote:
			_ = peer.Send(0, RequestVoteReply{Term: p.Term, VoteGranted: true})
		case AppendEntries:
			// The first append is the term-opening no-op: leadership is
			// established, so feed in the client proposals and the reads.
			if !proposing {
				proposing = true
				go func() {
					defer close(proposed)
					for i := 0; i < total; i++ {
						if _, err := node.Propose(ctx, KVCommand{Op: "set", Key: "k", Value: "v"}); err != nil {
							t.Errorf("propose %d: %v", i, err)
							return
						}
					}
				}()
				go func() {
					for ctx.Err() == nil {
						if _, err := node.ReadIndex(ctx); err == nil {
							reads.Add(1)
						}
					}
				}()
			}
			if len(p.Entries) == 0 {
				// Heartbeat or read probe: exempt from the window, answered
				// at once without acknowledging anything held back below.
				_ = peer.Send(0, AppendEntriesReply{Term: p.Term, Success: true, MatchIndex: min(p.PrevLogIndex, acked), ReadID: p.ReadID})
				if unacked == maxInflight {
					if probes++; probes == 2 {
						held++
						release()
					}
				}
				continue
			}
			if len(p.Entries) > maxEntries {
				t.Fatalf("AppendEntries carried %d entries, cap is %d", len(p.Entries), maxEntries)
			}
			maxBatch = max(maxBatch, len(p.Entries))
			unacked++
			if unacked > maxSeen {
				maxSeen = unacked
			}
			if unacked > maxInflight {
				t.Fatalf("%d unacked entry-carrying AppendEntries on the wire, window is %d", unacked, maxInflight)
			}
			if p.PrevLogIndex > len(log) {
				t.Fatalf("pipelined send skipped ahead: prev=%d, follower log=%d", p.PrevLogIndex, len(log))
			}
			log = log[:p.PrevLogIndex]
			log = append(log, p.Entries...)
			pendAcks = append(pendAcks, AppendEntriesReply{Term: p.Term, Success: true, MatchIndex: len(log), ReadID: p.ReadID})
			// Hold acks until the window is full, so the test observes the
			// leader actually pipelining rather than ping-ponging. The first
			// window goes back once the proposals are in: no read is served,
			// hence no probe sent, before the term's no-op commits.
			if unacked == maxInflight && acked == 0 {
				select {
				case <-proposed:
				case <-ctx.Done():
					t.Fatal("the proposals never reached the leader's log")
				}
				release()
			} else if len(log) >= total+1 {
				release()
			}
		}
	}
	if maxSeen != maxInflight {
		t.Fatalf("pipeline depth never reached the window: saw %d, want %d", maxSeen, maxInflight)
	}
	if maxBatch != maxEntries {
		t.Fatalf("no AppendEntries carried the cap: at most %d entries, cap %d", maxBatch, maxEntries)
	}
	if held == 0 {
		t.Fatal("no full window was held across read probes: the cap was not exercised under read load")
	}
}
