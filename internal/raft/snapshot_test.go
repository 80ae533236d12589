package raft

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ooc/internal/codec/bin"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// compactLog compacts l through index as the replication core does.
func compactLog(l *raftLog, index int) {
	r := replication{log: *l}
	r.compact(index, nil)
	*l = r.log
}

func TestLogCompactTo(t *testing.T) {
	l := logOf(1, 1, 2, 2, 3)
	compactLog(l, 3)
	if l.snapIndex != 3 || l.snapTerm != 2 {
		t.Fatalf("snap = %d/%d", l.snapIndex, l.snapTerm)
	}
	if l.lastIndex() != 5 || l.lastTerm() != 3 {
		t.Fatalf("log = %v", l)
	}
	// Compacted entries are gone; the marker still answers termAt.
	if _, ok := l.entryAt(2); ok {
		t.Fatal("compacted entry still readable")
	}
	if term, ok := l.termAt(3); !ok || term != 2 {
		t.Fatalf("termAt(snap) = %d %v", term, ok)
	}
	if _, ok := l.termAt(2); ok {
		t.Fatal("termAt below snapshot reported ok")
	}
	// Remaining tail is intact.
	if e, ok := l.entryAt(5); !ok || e.Term != 3 {
		t.Fatalf("entryAt(5) = %v %v", e, ok)
	}
	// Compaction is monotonic and ignores stale/unknown indexes.
	compactLog(l, 2)
	if l.snapIndex != 3 {
		t.Fatal("compaction went backwards")
	}
	compactLog(l, 99)
	if l.snapIndex != 3 {
		t.Fatal("compaction beyond the log succeeded")
	}
}

func TestLogSliceAfterCompaction(t *testing.T) {
	l := logOf(1, 2, 3, 4)
	compactLog(l, 2)
	if got := l.slice(1); len(got) != 2 || got[0].Term != 3 {
		t.Fatalf("slice into compacted region = %v", got)
	}
	if got := l.slice(4); len(got) != 1 || got[0].Term != 4 {
		t.Fatalf("slice(4) = %v", got)
	}
}

func TestLogAppendAfterWithCompactedPrefix(t *testing.T) {
	l := logOf(1, 1, 2)
	compactLog(l, 2)
	// Re-delivery spanning the compacted region must skip what is gone
	// and append the genuinely new suffix.
	lastNew, _ := l.appendAfter(1, entries(1, 2, 2))
	if lastNew != 4 {
		t.Fatalf("lastNew = %d", lastNew)
	}
	if l.lastIndex() != 4 || l.lastTerm() != 2 {
		t.Fatalf("log = %v", l)
	}
}

func TestLogRestoreSnapshot(t *testing.T) {
	// Fresh log: snapshot replaces everything.
	l := &raftLog{}
	l.snapshotAt(5, 2, nil)
	if l.lastIndex() != 5 || l.lastTerm() != 2 || len(l.entries) != 0 {
		t.Fatalf("log = %v", l)
	}
	// Log already containing the snapshot point keeps its live suffix.
	l2 := logOf(1, 1, 2, 3)
	l2.snapshotAt(3, 2, nil)
	if l2.lastIndex() != 4 || l2.lastTerm() != 3 {
		t.Fatalf("suffix lost: %v", l2)
	}
	// Conflicting log is discarded wholesale.
	l3 := logOf(1, 1, 1, 1)
	l3.snapshotAt(3, 2, nil)
	if l3.lastIndex() != 3 || len(l3.entries) != 0 {
		t.Fatalf("conflict not discarded: %v", l3)
	}
}

func TestKVStoreSnapshotRoundTrip(t *testing.T) {
	var kv KVStore
	kv.Apply(1, KVCommand{Op: "set", Key: "a", Value: "1"})
	kv.Apply(2, KVCommand{Op: "set", Key: "b", Value: "2"})
	data, err := kv.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	var restored KVStore
	if err := restored.RestoreSnapshot(2, data); err != nil {
		t.Fatal(err)
	}
	if v, _ := restored.Get("a"); v != "1" {
		t.Fatalf("a=%q", v)
	}
	if restored.AppliedIndex() != 2 {
		t.Fatalf("applied = %d", restored.AppliedIndex())
	}
	if err := restored.RestoreSnapshot(1, []byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestKVStoreSnapshotIsDeterministic: stores holding the same keys
// snapshot to the same bytes, whatever order the keys were set in.
func TestKVStoreSnapshotIsDeterministic(t *testing.T) {
	const keys = 64
	var up, down KVStore
	for i := 0; i < keys; i++ {
		j := keys - 1 - i
		up.Apply(i+1, KVCommand{Op: "set", Key: fmt.Sprintf("k%02d", i), Value: fmt.Sprint(i)})
		down.Apply(i+1, KVCommand{Op: "set", Key: fmt.Sprintf("k%02d", j), Value: fmt.Sprint(j)})
	}
	a, err := up.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	b, err := down.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the same key space snapshots to different bytes")
	}
}

// TestKVStoreRestoreRefusesMalformedInput: a snapshot cut short, one with
// bytes after its last pair, and one counting more pairs than it has
// bytes are refused, and the store keeps what it held.
func TestKVStoreRestoreRefusesMalformedInput(t *testing.T) {
	var src KVStore
	src.Apply(1, KVCommand{Op: "set", Key: "a", Value: "1"})
	src.Apply(2, KVCommand{Op: "set", Key: "b", Value: "2"})
	good, err := src.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":      nil,
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0),
		"huge count": bin.AppendUvarint(nil, 1<<40),
	} {
		var kv KVStore
		kv.Apply(3, KVCommand{Op: "set", Key: "keep", Value: "me"})
		if err := kv.RestoreSnapshot(9, data); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if v, _ := kv.Get("keep"); v != "me" || kv.AppliedIndex() != 3 {
			t.Errorf("%s: a refused restore changed the store", name)
		}
	}
}

func TestLeaderCompactsAtThreshold(t *testing.T) {
	nw := netsim.New(1)
	kv := &KVStore{}
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      kv,
		SnapshotThreshold: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for node.Status().State != Leader {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(time.Millisecond)
	}
	var lastIdx int
	for i := 0; i < 12; i++ {
		idx, err := node.Propose(ctx, KVCommand{Op: "set", Key: fmt.Sprintf("k%d", i), Value: "v"})
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
	}
	for kv.AppliedIndex() < lastIdx {
		time.Sleep(time.Millisecond)
	}
	st := node.Status()
	if st.SnapshotIndex < 5 {
		t.Fatalf("no compaction happened: %+v", st)
	}
	if st.LogLength != lastIdx || st.LastApplied != lastIdx {
		t.Fatalf("log bookkeeping wrong after compaction: %+v", st)
	}
	if kv.Len() != 12 {
		t.Fatalf("state machine lost keys: %d", kv.Len())
	}
}

func TestLaggardCatchesUpViaSnapshot(t *testing.T) {
	// A node isolated while the cluster commits far past the compaction
	// threshold must be caught up with InstallSnapshot, not entry replay.
	const n = 3
	nw := netsim.New(n, netsim.WithSeed(83))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := sim.NewRNG(83)
	kvs := make([]*KVStore, n)
	nodes := make([]*Node, n)
	for id := 0; id < n; id++ {
		kvs[id] = &KVStore{}
		node, err := NewNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			StateMachine:      kvs[id],
			SnapshotThreshold: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := NewClient(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "w0", Value: "v"}); err != nil {
		t.Fatal(err)
	}

	// Isolate a follower, then commit far beyond the threshold.
	leader := -1
	deadline := time.Now().Add(10 * time.Second)
	for leader == -1 {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		for id, node := range nodes {
			if node.Status().State == Leader {
				leader = id
			}
		}
		time.Sleep(time.Millisecond)
	}
	isolated := (leader + 1) % n
	var rest []int
	for id := 0; id < n; id++ {
		if id != isolated {
			rest = append(rest, id)
		}
	}
	nw.Partition(rest)

	var lastIdx int
	for i := 0; i < 15; i++ {
		idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: fmt.Sprintf("bulk%d", i), Value: "x"})
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
	}
	// The leader must have compacted past the laggard's log.
	deadline = time.Now().Add(10 * time.Second)
	for nodes[leader].Status().SnapshotIndex <= nodes[isolated].Status().LogLength {
		if time.Now().After(deadline) {
			t.Fatalf("leader never compacted past the laggard: leader=%+v laggard=%+v",
				nodes[leader].Status(), nodes[isolated].Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	nw.Heal()
	deadline = time.Now().Add(15 * time.Second)
	for kvs[isolated].AppliedIndex() < lastIdx {
		if time.Now().After(deadline) {
			t.Fatalf("laggard never caught up: %+v", nodes[isolated].Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Snapshot-based catch-up: the laggard's own log must now start at a
	// compaction point, and its state machine must hold every key.
	if st := nodes[isolated].Status(); st.SnapshotIndex == 0 {
		t.Fatalf("laggard caught up without a snapshot: %+v", st)
	}
	for i := 0; i < 15; i++ {
		if _, ok := kvs[isolated].Get(fmt.Sprintf("bulk%d", i)); !ok {
			t.Fatalf("laggard missing bulk%d", i)
		}
	}
	if _, ok := kvs[isolated].Get("w0"); !ok {
		t.Fatal("laggard missing pre-partition key")
	}
}

func TestSnapshotPersistsAcrossRestart(t *testing.T) {
	// Compaction + Storage + crash-recovery together: a node restarted
	// from a store containing a snapshot record must come back with the
	// snapshot applied and only the log tail in memory.
	store := NewMemStorage()
	kv := &KVStore{}
	nw := netsim.New(1)
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(9),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      kv,
		Storage:           store,
		SnapshotThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	node.Start(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for node.Status().State != Leader {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(time.Millisecond)
	}
	var lastIdx int
	for i := 0; i < 10; i++ {
		idx, err := node.Propose(ctx, KVCommand{Op: "set", Key: fmt.Sprintf("k%d", i), Value: "v"})
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
	}
	for kv.AppliedIndex() < lastIdx {
		time.Sleep(time.Millisecond)
	}
	snapBefore := node.Status().SnapshotIndex
	if snapBefore < 4 {
		t.Fatalf("no compaction before restart: %+v", node.Status())
	}
	// Stop and reboot from the same store with a fresh state machine.
	cancel()
	<-node.Done()
	nw.Restart(0)
	kv2 := &KVStore{}
	node2, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(10),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      kv2,
		Storage:           store,
		SnapshotThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Restored pre-Start: snapshot already applied.
	if kv2.AppliedIndex() < snapBefore {
		t.Fatalf("snapshot not restored: applied=%d want>=%d", kv2.AppliedIndex(), snapBefore)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	node2.Start(ctx2)
	deadline = time.Now().Add(10 * time.Second)
	for kv2.AppliedIndex() < lastIdx {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node did not reapply tail: %+v", node2.Status())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if _, ok := kv2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("restarted node missing k%d", i)
		}
	}
	if st := node2.Status(); st.SnapshotIndex != snapBefore && st.SnapshotIndex < 4 {
		t.Fatalf("snapshot marker lost across restart: %+v", st)
	}
}

func TestFileStorageSnapshotRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raft.log")
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(0, entries(1, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(3, 2, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAndAppend(4, entries(3)); err != nil {
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
	if st.SnapIndex != 3 || st.SnapTerm != 2 || string(st.SnapData) != "snap" {
		t.Fatalf("snapshot record: %+v", st)
	}
	// Tail: global indexes 4 (term 2) and 5 (term 3).
	if len(st.Entries) != 2 || st.Entries[0].Term != 2 || st.Entries[1].Term != 3 {
		t.Fatalf("tail: %+v", st.Entries)
	}
}

// installOverConflict saves, over the log [1 1 1 1], a snapshot at 3 in
// term 2 — what a follower installs from a leader whose log differs at 3
// — and checks that Load returns the snapshot alone: the suffix after a
// snapshot point the log holds in another term goes, as it does in memory.
func installOverConflict(t *testing.T, s Storage) {
	t.Helper()
	if err := s.TruncateAndAppend(0, entries(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(3, 2, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapIndex != 3 || st.SnapTerm != 2 || len(st.Entries) != 0 {
		t.Fatalf("loaded snapshot %d/%d and tail %v, want 3/2 and nothing", st.SnapIndex, st.SnapTerm, st.Entries)
	}
}

func TestMemStorageInstallOverConflictingLog(t *testing.T) {
	installOverConflict(t, NewMemStorage())
}

func TestFileStorageInstallOverConflictingLog(t *testing.T) {
	s, err := OpenFileStorage(filepath.Join(t.TempDir(), "raft.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	installOverConflict(t, s)
}

// A follower that installs a snapshot over a conflicting log comes back
// from its disk with the log it held, so a restart cannot turn a vote the
// election restriction (§5.4.1) refuses into one it grants.
func TestInstallOverConflictingLogSurvivesRestart(t *testing.T) {
	var kv KVStore
	kv.Apply(3, KVCommand{Op: "set", Key: "k", Value: "v"})
	data, err := kv.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStorage()
	if err := st.TruncateAndAppend(0, entries(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	nd := unstarted(t, st)
	nd.handleMessage(msgnet.Message{From: 1, Payload: InstallSnapshot{Term: 2, LeaderID: 1,
		LastIncludedIndex: 3, LastIncludedTerm: 2, Data: data}})
	nd.flush()
	nd.onPersistDone(nd.doPersistRun([]persistReq{<-nd.persistQ}))
	back := unstarted(t, st)
	if got, want := back.rep.log.String(), nd.rep.log.String(); got != want || len(back.rep.log.entries) != 0 {
		t.Fatalf("restarted with %s and tail %v, held %s", got, back.rep.log.entries, want)
	}
	if back.rep.log.upToDate(4, 1) {
		t.Fatal("after the restart a candidate with log 4/1 is up to date; before it, it was not")
	}
}
