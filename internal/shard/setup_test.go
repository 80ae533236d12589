package shard_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

// bringUp boots a nodes×shards cluster the way a server does from cold —
// loopback TCP listeners, a FileStorage per replica under dir opened and
// Loaded, the election — and returns once every shard has acknowledged
// one write. stop tears it down and closes everything it opened.
func bringUp(tb testing.TB, dir string, nodes, shards int) (stop func()) {
	tb.Helper()
	trs, err := transport.NewLocalCluster(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	eps := make([]msgnet.Endpoint, nodes)
	for i, tr := range trs {
		eps[i] = tr
	}
	var files []*raft.FileStorage
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	var c *shard.Cluster
	stop = func() {
		cancel()
		if c != nil {
			c.Wait()
		}
		for _, fs := range files {
			_ = fs.Close()
		}
		for _, tr := range trs {
			_ = tr.Close()
		}
	}
	c, err = shard.NewCluster(shard.Config{
		Endpoints: eps,
		Shards:    shards,
		RNG:       sim.NewRNG(uint64(shards)),
		Storage: func(node, s int) (raft.Storage, error) {
			fs, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("n%d-s%d.wal", node, s)))
			if err != nil {
				return nil, err
			}
			files = append(files, fs)
			_, err = fs.Load()
			return fs, err
		},
	})
	if err == nil {
		err = c.Start(ctx)
	}
	if err == nil {
		err = c.WaitForLeaders(ctx)
	}
	for s := 0; err == nil && s < shards; s++ {
		key := ""
		for i := 0; key == "" || c.ShardOf(key) != s; i++ {
			key = fmt.Sprintf("warm/%d", i)
		}
		_, _, err = c.Put(ctx, key, "warm")
	}
	if err != nil {
		stop()
		tb.Fatal(err)
	}
	return stop
}

// A set-up allocates what it carries, not fixed buffers it never fills:
// no WAL writer or peer writer is born at 64 KiB, and Load — which every
// store takes twice, once by its opener and once by NewNode — reads an
// empty file through a reader no larger than the file. Fixed 64 KiB
// buffers made a 3-node, 4-shard set-up 3.8 MB; this guard fails them.
// The least of three set-ups, since an election that needs a second
// round allocates more for reasons of its own.
func TestClusterSetupAllocBytes(t *testing.T) {
	const nodes, shards, limit = 3, 4, 1500 << 10
	least := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stop := bringUp(t, dir, nodes, shards)
		runtime.ReadMemStats(&after)
		stop()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d-node, %d-shard set-up allocated %d KB", nodes, shards, least>>10)
	if least > limit {
		t.Fatalf("%d-node, %d-shard set-up allocated %d KB, want at most %d KB", nodes, shards, least>>10, limit>>10)
	}
}

// BenchmarkClusterSetup is the ledger's setup_s outside benchmark/: boot
// to first acknowledged write on every shard, 3 nodes over loopback TCP
// with a FileStorage per replica. Tear-down is outside the timer, and
// outside B/op with it.
func BenchmarkClusterSetup(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				stop := bringUp(b, dir, 3, shards)
				b.StopTimer()
				stop()
			}
		})
	}
}
