package bench

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"ooc/internal/codec"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/sim"
)

// RunF1 reproduces the paper's Figure 1 — the four Raft message formats —
// as code: every message round-trips through the wire codec, and the
// table records each format's fields and encoded size.
func RunF1(Suite) (Table, error) {
	tbl := Table{
		ID:      "F1",
		Title:   "Raft consensus messages (paper Figure 1): wire codec round-trip",
		Columns: []string{"message", "fields", "encoded_bytes", "roundtrip"},
	}
	samples := []struct {
		name   string
		fields string
		value  any
	}{
		{"RequestVote", "term, candidateId, lastLogIndex, lastLogTerm",
			raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 7, LastLogTerm: 2}},
		{"ack_RequestVote", "term, voteGranted",
			raft.RequestVoteReply{Term: 3, VoteGranted: true}},
		{"AppendEntries", "term, leaderId, prevLogIndex, prevLogTerm, D&S(v), leaderCommit",
			raft.AppendEntries{Term: 3, LeaderID: 1, PrevLogIndex: 6, PrevLogTerm: 2,
				Entries: []raft.Entry{{Term: 3, Command: raft.DS{Value: "v"}}}, LeaderCommit: 6}},
		{"ack_AppendEntries", "term, success (+ matchIndex, see messages.go)",
			raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 7}},
	}
	var dec codec.Decoder
	for _, s := range samples {
		frame, err := codec.Append(nil, s.value)
		if err != nil {
			return tbl, fmt.Errorf("F1 encode %s: %w", s.name, err)
		}
		out, err := dec.Decode(frame)
		if err != nil {
			return tbl, fmt.Errorf("F1 decode %s: %w", s.name, err)
		}
		ok := "ok"
		if !reflect.DeepEqual(out, s.value) {
			ok = "MISMATCH"
		}
		tbl.AddRow(s.name, s.fields, len(frame), ok)
	}
	tbl.Notes = append(tbl.Notes,
		"the ack_AppendEntries matchIndex field is an async-channel substitution documented in raft/messages.go")
	return tbl, nil
}

// RunF2 reproduces the paper's Figure 2 — the protocol's inner state
// variables — by walking one node through an election and a replication
// and recording every variable the figure lists at each checkpoint.
func RunF2(Suite) (Table, error) {
	tbl := Table{
		ID:      "F2",
		Title:   "Raft inner state variables (paper Figure 2) through an election",
		Columns: []string{"checkpoint", "state", "currentTerm", "commitIndex", "lastApplied", "log_len", "leaderId"},
	}
	const n = 3
	nw := netsim.New(n, netsim.WithSeed(1))
	rng := sim.NewRNG(2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sms := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		sms[id] = &raft.KVStore{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   benchElection,
			HeartbeatInterval: benchHeartbeat,
			StateMachine:      sms[id],
		})
		if err != nil {
			return tbl, err
		}
		nodes[id] = node
	}
	record := func(name string, st raft.Status) {
		tbl.AddRow(name, st.State, st.Term, st.CommitIndex, st.LastApplied, st.LogLength, st.LeaderID)
	}
	// The initial state per Figure 2: follower, term 0, empty log. (A
	// node answers Status only once started.)
	record("initial", raft.Status{ID: 0, State: raft.Follower, LeaderID: -1})
	for _, node := range nodes {
		node.Start(ctx)
	}
	leader := -1
	deadline := time.Now().Add(30 * time.Second)
	for leader == -1 {
		if time.Now().After(deadline) {
			return tbl, fmt.Errorf("F2: no leader elected")
		}
		for id, node := range nodes {
			if node.Status().State == raft.Leader {
				leader = id
			}
		}
		time.Sleep(time.Millisecond)
	}
	record("post-election(leader)", nodes[leader].Status())
	idx, err := nodes[leader].Propose(ctx, raft.KVCommand{Op: "set", Key: "fig", Value: "2"})
	if err != nil {
		return tbl, fmt.Errorf("F2 propose: %w", err)
	}
	for sms[leader].AppliedIndex() < idx {
		if time.Now().After(deadline) {
			return tbl, fmt.Errorf("F2: entry never applied")
		}
		time.Sleep(time.Millisecond)
	}
	record("post-commit(leader)", nodes[leader].Status())
	follower := (leader + 1) % n
	for sms[follower].AppliedIndex() < idx {
		if time.Now().After(deadline) {
			return tbl, fmt.Errorf("F2: follower never applied")
		}
		time.Sleep(time.Millisecond)
	}
	record("post-commit(follower)", nodes[follower].Status())
	tbl.Notes = append(tbl.Notes,
		"index 1 is the leader's term-opening no-op (Raft §5.4.2); the client write lands at index 2",
		"NextIndex[]/MatchIndex[] are leader-internal and reinitialized per election (see raft/state.go);",
		"  VotedFor is likewise per-term internal state exercised by the election tests")
	return tbl, nil
}
