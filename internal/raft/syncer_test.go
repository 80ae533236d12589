package raft

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakeTarget is a controllable SyncTarget: an optional gate blocks
// SyncDevice until the test releases it (one token per call), and err
// is returned from every fsync.
type fakeTarget struct {
	mu    sync.Mutex
	syncs int
	err   error
	gate  chan struct{}
}

func (t *fakeTarget) SyncDevice() error {
	if t.gate != nil {
		<-t.gate
	}
	t.mu.Lock()
	t.syncs++
	t.mu.Unlock()
	return t.err
}

func (t *fakeTarget) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncs
}

// waitPending blocks until exactly n requests are parked on c.
func waitPending(t *testing.T, c *SyncCoalescer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.pending)
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending requests (have %d)", n, got)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Sequential syncs never coalesce: every request flies alone at width 1
// and pays its own barrier.
func TestSyncerSequentialWidthOne(t *testing.T) {
	c := NewSyncCoalescer(SyncerConfig{})
	tgt := &fakeTarget{}
	for i := 0; i < 5; i++ {
		width, err := c.Sync(tgt)
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if width != 1 {
			t.Fatalf("sync %d: width = %d, want 1", i, width)
		}
	}
	if got := tgt.count(); got != 5 {
		t.Fatalf("fsyncs = %d, want 5", got)
	}
	if c.Requests() != 5 || c.Barriers() != 5 || c.Coalesced() != 0 {
		t.Fatalf("requests/barriers/coalesced = %d/%d/%d, want 5/5/0",
			c.Requests(), c.Barriers(), c.Coalesced())
	}
}

// K requests parked behind a slow barrier leader all ride the leader's
// one barrier: every caller sees width K+1, one barrier is paid, and
// every target's own file was fsynced before release.
func TestSyncerCoalescesConcurrentRequests(t *testing.T) {
	const waiters = 3
	c := NewSyncCoalescer(SyncerConfig{})
	leader := &fakeTarget{gate: make(chan struct{})}

	leaderWidth := make(chan int, 1)
	go func() {
		w, _ := c.Sync(leader)
		leaderWidth <- w
	}()

	// The leader is now blocked inside its own fsync; park the cohort.
	var wg sync.WaitGroup
	targets := make([]*fakeTarget, waiters)
	widths := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		// The leader holds busy from the instant it enters Sync, but
		// give it time to actually reach SyncDevice before parking.
		for c.Requests() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		targets[i] = &fakeTarget{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			widths[i], _ = c.Sync(targets[i])
		}(i)
	}
	waitPending(t, c, waiters)

	leader.gate <- struct{}{} // release the leader's fsync
	wg.Wait()

	if w := <-leaderWidth; w != waiters+1 {
		t.Fatalf("leader width = %d, want %d", w, waiters+1)
	}
	for i, w := range widths {
		if w != waiters+1 {
			t.Fatalf("waiter %d width = %d, want %d", i, w, waiters+1)
		}
		if targets[i].count() != 1 {
			t.Fatalf("waiter %d fsyncs = %d, want 1 (released without a clean file)", i, targets[i].count())
		}
	}
	if c.Requests() != waiters+1 || c.Barriers() != 1 || c.Coalesced() != waiters {
		t.Fatalf("requests/barriers/coalesced = %d/%d/%d, want %d/1/%d",
			c.Requests(), c.Barriers(), c.Coalesced(), waiters+1, waiters)
	}
}

// A failing file fails only its own group: cohort members covered by the
// same barrier still get nil. With written-back files in the round the
// rule has one more clause — the flush that closes the round is shared
// by the members it was for, and by nobody else.
func TestSyncerErrorIsolation(t *testing.T) {
	t.Run("own SyncDevice", func(t *testing.T) {
		c := NewSyncCoalescer(SyncerConfig{})
		leader := &fakeTarget{gate: make(chan struct{})}
		bad := &fakeTarget{err: errors.New("bad fd")}
		good := &fakeTarget{}

		leaderErr := make(chan error, 1)
		go func() {
			_, err := c.Sync(leader)
			leaderErr <- err
		}()
		for c.Requests() == 0 {
			time.Sleep(100 * time.Microsecond)
		}

		errs := make([]chan error, 2)
		for i, tgt := range []*fakeTarget{bad, good} {
			errs[i] = make(chan error, 1)
			go func(i int, tgt *fakeTarget) {
				_, err := c.Sync(tgt)
				errs[i] <- err
			}(i, tgt)
		}
		waitPending(t, c, 2)
		leader.gate <- struct{}{}

		if err := <-leaderErr; err != nil {
			t.Fatalf("leader error = %v, want nil", err)
		}
		if err := <-errs[0]; err == nil || err.Error() != "bad fd" {
			t.Fatalf("bad target error = %v, want bad fd", err)
		}
		if err := <-errs[1]; err != nil {
			t.Fatalf("good target error = %v, want nil (one group's bad fd leaked)", err)
		}
	})

	// Rounds of real files, each led by a and held at the head of a's
	// write-back wait while b, and in one case a foreign target, park
	// behind it: b's own submit is in the log before a's wait.
	type result struct{ a, b, foreign error }
	run := func(t *testing.T, withForeign bool, fail func(a, b *testWAL) func(string, *os.File) error) (a, b *testWAL, log *sysLog, r result) {
		sc := NewSyncCoalescer(SyncerConfig{})
		dir := t.TempDir()
		a = openGrownWAL(t, filepath.Join(dir, "a.wal"), sc)
		b = openGrownWAL(t, filepath.Join(dir, "b.wal"), sc)
		log, release, aDone := heldRound(t, a, fail(a, b))
		bDone := flushParked(t, sc, b, 40, 1)
		foreignDone := make(chan error, 1)
		if withForeign {
			go func() { _, err := sc.Sync(&fakeTarget{}); foreignDone <- err }()
			waitPending(t, sc, 2)
		} else {
			foreignDone <- nil
		}
		release()
		return a, b, log, result{<-aDone, <-bDone, <-foreignDone}
	}
	names := func(a, b *testWAL) map[*os.File]string { return map[*os.File]string{a.f: "a", b.f: "b"} }
	// failB fails op on b's file with err.
	failB := func(op string, err error) func(a, b *testWAL) func(string, *os.File) error {
		return func(_, b *testWAL) func(string, *os.File) error {
			return func(o string, f *os.File) error {
				if o == op && f == b.f {
					return err
				}
				return nil
			}
		}
	}

	t.Run("write-back failure is the request's own", func(t *testing.T) {
		a, b, log, r := run(t, false, failB(opWriteBackWait, syscall.EIO))
		if r.a != nil || !errors.Is(r.b, syscall.EIO) {
			t.Fatalf("a: %v, b: %v; want nil, EIO", r.a, r.b)
		}
		if got, want := log.ops(0, names(a, b)), "writeback:a writeback:b writeback-wait:a writeback-wait:b fdatasync:a"; got != want {
			t.Fatalf("syscalls = %q, want %q", got, want)
		}
	})

	t.Run("closing flush failure is every written-back member's", func(t *testing.T) {
		_, _, _, r := run(t, true, func(_, _ *testWAL) func(string, *os.File) error {
			return func(op string, _ *os.File) error {
				if op == "fdatasync" {
					return syscall.EIO
				}
				return nil
			}
		})
		if !errors.Is(r.a, syscall.EIO) || !errors.Is(r.b, syscall.EIO) || r.foreign != nil {
			t.Fatalf("a: %v, b: %v, foreign: %v; want EIO, EIO, nil", r.a, r.b, r.foreign)
		}
	})

	// The kernel may refuse either call. Refused at the round's wait, b is
	// demoted there; refused at its own submit, b is demoted before it
	// queues and the round never waits on it. Either way b's own fdatasync
	// comes after a's wait, so it closes the round, and b flushes alone
	// from then on.
	for _, tc := range []struct{ name, op, want string }{
		{"ENOSYS demotes the file and the round succeeds", opWriteBackWait,
			"writeback:a writeback:b writeback-wait:a writeback-wait:b fdatasync:b"},
		{"ENOSYS from the early submit demotes the file before it queues", opWriteBack,
			"writeback:a writeback:b writeback-wait:a fdatasync:b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, log, r := run(t, false, failB(tc.op, syscall.ENOSYS))
			if r.a != nil || r.b != nil {
				t.Fatalf("a: %v, b: %v; want nil, nil", r.a, r.b)
			}
			if got := log.ops(0, names(a, b)); got != tc.want {
				t.Fatalf("syscalls = %q, want %q", got, tc.want)
			}
			if !a.overwrites || b.overwrites {
				t.Fatalf("eligible after the round: a %v, b %v; want true, false", a.overwrites, b.overwrites)
			}
			from := log.len()
			if err := b.append(40); err != nil {
				t.Fatal(err)
			}
			if got := log.ops(from, names(a, b)); got != "fdatasync:b" {
				t.Fatalf("demoted file's next flush: syscalls = %q, want its own fdatasync alone", got)
			}
		})
	}

	// The early submit runs on the owner's goroutine, outside any round:
	// its failure is that flush's own, returned while a's round is still
	// held, with nothing parked and no round spent on it.
	t.Run("EIO from the early submit is the flush's own and takes no round", func(t *testing.T) {
		sc := NewSyncCoalescer(SyncerConfig{})
		dir := t.TempDir()
		a := openGrownWAL(t, filepath.Join(dir, "a.wal"), sc)
		b := openGrownWAL(t, filepath.Join(dir, "b.wal"), sc)
		requests, barriers := sc.Requests(), sc.Barriers()
		log, release, aDone := heldRound(t, a, failB(opWriteBack, syscall.EIO)(a, b))
		if err := b.append(40); !errors.Is(err, syscall.EIO) {
			t.Fatalf("b: %v, want EIO", err)
		}
		if b.overwrites || b.synced != b.pos {
			t.Fatalf("after the failed submit: b eligible %v, synced %d of %d; want false, all", b.overwrites, b.synced, b.pos)
		}
		release()
		if err := <-aDone; err != nil {
			t.Fatalf("a: %v, want nil", err)
		}
		if got, want := log.ops(0, names(a, b)), "writeback:a writeback:b writeback-wait:a fdatasync:a"; got != want {
			t.Fatalf("syscalls = %q, want %q", got, want)
		}
		if sc.Requests() != requests+1 || sc.Barriers() != barriers+1 {
			t.Fatalf("%+d requests, %+d rounds; want a's alone", sc.Requests()-requests, sc.Barriers()-barriers)
		}
		from := log.len()
		if err := b.append(40); err != nil {
			t.Fatal(err)
		}
		if got := log.ops(from, names(a, b)); got != "fdatasync:b" {
			t.Fatalf("b's next flush: syscalls = %q, want its own fdatasync alone", got)
		}
	})
}

// Requests that park while the leader is fsyncing the stolen cohort
// miss the round and get promoted: the oldest leads a fresh barrier
// instead of waiting for an idle edge.
func TestSyncerHandoffPromotesLateArrival(t *testing.T) {
	c := NewSyncCoalescer(SyncerConfig{})
	leader := &fakeTarget{gate: make(chan struct{})}
	stolen := &fakeTarget{gate: make(chan struct{})}
	late := &fakeTarget{}

	done := make(chan int, 3)
	go func() { w, _ := c.Sync(leader); done <- w }()
	for c.Requests() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	go func() { w, _ := c.Sync(stolen); done <- w }()
	waitPending(t, c, 1)

	// Release the leader's own fsync; it steals `stolen` and blocks on
	// stolen's gated fsync. Wait for the steal (pending drains to zero)
	// before issuing `late`, so it provably parks for the *next* round.
	leader.gate <- struct{}{}
	waitPending(t, c, 0)
	go func() { w, _ := c.Sync(late); done <- w }()
	waitPending(t, c, 1)
	stolen.gate <- struct{}{}

	widths := map[int]int{}
	for i := 0; i < 3; i++ {
		widths[<-done]++
	}
	// Round 1 covered leader+stolen (width 2); the promoted late request
	// ran its own round at width 1.
	if widths[2] != 2 || widths[1] != 1 {
		t.Fatalf("widths = %v, want two at 2 and one at 1", widths)
	}
	if c.Barriers() != 2 || c.Requests() != 3 || c.Coalesced() != 1 {
		t.Fatalf("requests/barriers/coalesced = %d/%d/%d, want 3/2/1",
			c.Requests(), c.Barriers(), c.Coalesced())
	}
	if late.count() != 1 {
		t.Fatalf("late target fsyncs = %d, want 1", late.count())
	}
}

// Uncontended Sync allocates nothing: the single-group degenerate case
// must not pay for machinery it doesn't use.
func TestSyncerUncontendedPathAllocFree(t *testing.T) {
	c := NewSyncCoalescer(SyncerConfig{})
	tgt := &fakeTarget{}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Sync(tgt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("uncontended Sync allocates %.1f objects/op, want 0", allocs)
	}
}

// Hammer the syncer from many groups at once: every request must be
// covered exactly once (own fsync done before return), and the request
// accounting identity Requests == Barriers + Coalesced must hold. Run
// under -race this doubles as the data-race check for the handoff path.
func TestSyncerConcurrentStress(t *testing.T) {
	const groups, iters = 16, 200
	c := NewSyncCoalescer(SyncerConfig{Disk: NewDisk(10 * time.Microsecond)})
	var wg sync.WaitGroup
	targets := make([]*fakeTarget, groups)
	for g := 0; g < groups; g++ {
		targets[g] = &fakeTarget{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				width, err := c.Sync(targets[g])
				if err != nil {
					panic(err)
				}
				if width < 1 || width > groups {
					panic("impossible barrier width")
				}
			}
		}(g)
	}
	wg.Wait()
	for g, tgt := range targets {
		if tgt.count() != iters {
			t.Fatalf("group %d fsyncs = %d, want %d (missed or double coverage)", g, tgt.count(), iters)
		}
	}
	if c.Requests() != groups*iters {
		t.Fatalf("requests = %d, want %d", c.Requests(), groups*iters)
	}
	if c.Requests() != c.Barriers()+c.Coalesced() {
		t.Fatalf("accounting identity broken: %d requests != %d barriers + %d coalesced",
			c.Requests(), c.Barriers(), c.Coalesced())
	}
	if c.Barriers() >= c.Requests() {
		t.Fatalf("no coalescing under %d-way contention: %d barriers for %d requests",
			groups, c.Barriers(), c.Requests())
	}
}
