package main

import (
	"fmt"
	"testing"
	"time"

	"ooc/internal/raft"
)

// TestDemoSurvivesLeaderCrash runs the -demo script end to end on
// loopback TCP: routed writes, a linearizable read, the crash of the
// node leading shard 0 (which takes down every replica it hosts), a new
// leader on a live node for every shard, and one committed write per
// shard after the crash.
func TestDemoSurvivesLeaderCrash(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- runClusterDemo(3, shards, raft.ReadLinearizable, 0, nil) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("demo did not finish within 30s")
			}
		})
	}
}
