package raft

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// appendWitnessed makes n one-entry appends to s, each with a witness
// goroutine readied immediately before it by an unbuffered send, so the
// witness sits in runnext — exactly where flush() leaves the apply worker
// and the woken clients when it hands the persist worker its request. On
// each wake the witness reports the store's barrier count as it finds
// it; late counts the appends that reached the device before it had run.
func appendWitnessed(s *FileStorage, n int) (late int, err error) {
	ready, saw := make(chan struct{}), make(chan int64, 1)
	defer close(ready)
	go func() {
		for range ready {
			saw <- s.Syncs()
		}
	}()
	es := []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: "v"}}}
	for i := 0; i < n; i++ {
		runtime.Gosched() // the witness is parked on ready again
		before := s.Syncs()
		ready <- struct{}{}
		if err := s.AppendBatch([]LogMutation{{PrevIndex: i, Entries: es}}); err != nil {
			return late, err
		}
		if <-saw != before {
			late++
		}
	}
	return late, nil
}

// TestBarrierEntersWithRunQueueDrained pins the rule SyncDevice states: a
// goroutine about to park its P in fdatasync lets that P's queue run
// first. At one P nothing can steal the queue, so a witness readied just
// before the append either runs at the yield — and sees the barrier count
// the appender read — or waits for sysmon to take the P off the syscall,
// which on a ~250 µs barrier is often after it has returned.
//
// Not every yield can take: on every 61st pick the scheduler serves its
// global queue first, which is where Gosched has just put the yielder, so
// about appends/61 barriers still enter with the witness queued and some
// of those finish before sysmon acts. maxLate allows three times that;
// without the yield a store alone read 15 to 181 late of 200.
func TestBarrierEntersWithRunQueueDrained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const appends, maxLate = 200, 200 / 20

	// One store on the coalescer OpenFileStorage gave it: every round has
	// one member, and its barrier yields the same way.
	t.Run("own coalescer", func(t *testing.T) {
		s, err := OpenFileStorage(filepath.Join(t.TempDir(), "raft.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		late, err := appendWitnessed(s, appends)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("late: %d of %d", late, appends)
		if late > maxLate {
			t.Fatalf("%d of %d barriers completed before a goroutine readied ahead of them ran, want at most %d", late, appends, maxLate)
		}
	})

	// Four stores on one coalescer: the round leader — first arrival or
	// promoted by handoff(), which readies it straight into runnext —
	// issues the other groups' barriers too, through the same SyncDevice.
	t.Run("coalesced barrier", func(t *testing.T) {
		const stores = 4
		sc := NewSyncCoalescer(SyncerConfig{})
		dir := t.TempDir()
		late := make([]int, stores)
		errs := make([]error, stores)
		var wg sync.WaitGroup
		for i := 0; i < stores; i++ {
			s, err := OpenFileStorage(filepath.Join(dir, fmt.Sprintf("raft-%d.log", i)))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			s.SetSyncer(sc)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				late[i], errs[i] = appendWitnessed(s, appends)
			}(i)
		}
		wg.Wait()
		t.Logf("late per store: %v of %d", late, appends)
		for i := range late {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if late[i] > maxLate {
				t.Errorf("store %d: %d of %d barriers completed before a goroutine readied ahead of them ran, want at most %d", i, late[i], appends, maxLate)
			}
		}
		if sc.Coalesced() == 0 {
			t.Errorf("no request rode another's barrier in %d: the round leader's path went unexercised", sc.Requests())
		}
	})
}
