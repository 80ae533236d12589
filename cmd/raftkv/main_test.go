package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"ooc/internal/raft"
)

// outage matches the demo's time-without-service line.
var outage = regexp.MustCompile(`time without service: \S+ to a leader on every shard, \S+ to the first acknowledged write`)

// TestDemoSurvivesLeaderCrash runs the -demo script end to end on
// loopback TCP: routed writes, a linearizable read, the crash of the
// node leading shard 0 (which takes down every replica it hosts), a new
// leader on a live node for every shard, one committed write per shard
// after the crash, and the line reporting how long service was out.
func TestDemoSurvivesLeaderCrash(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var out strings.Builder
			done := make(chan error, 1)
			go func() { done <- runClusterDemo(&out, 3, shards, raft.ReadLinearizable, 0, nil) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				if !outage.MatchString(out.String()) {
					t.Fatalf("no time-without-service line in the demo's output:\n%s", out.String())
				}
				t.Log(outage.FindString(out.String()))
			case <-time.After(30 * time.Second):
				t.Fatal("demo did not finish within 30s")
			}
		})
	}
}
