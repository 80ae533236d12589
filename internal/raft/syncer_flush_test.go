package raft

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ooc/internal/metrics"
)

// sysCall is one durability syscall as syscallHook saw it: start and end
// are ticks of the log's clock, which the tests also read when a flush
// returns, so "this fdatasync began after that write-back had finished
// and ended before the caller was released" is a comparison of integers.
type sysCall struct {
	op         string
	f          *os.File
	start, end int64
	err        error
}

// sysLog records every fdatasync and sync_file_range the package issues
// while it is installed. before, when set, runs ahead of the real call:
// it may block (to hold a round open) and a non-nil error from it is
// returned in the call's place.
type sysLog struct {
	clock  atomic.Int64
	before func(op string, f *os.File) error

	mu    sync.Mutex
	calls []sysCall
}

func installSysLog(t *testing.T, before func(op string, f *os.File) error) *sysLog {
	t.Helper()
	l := &sysLog{before: before}
	hook := l.run
	syscallHook.Store(&hook)
	t.Cleanup(func() { syscallHook.Store(nil) })
	return l
}

func (l *sysLog) run(op string, f *os.File, do func() error) error {
	c := sysCall{op: op, f: f}
	if l.before != nil {
		c.err = l.before(op, f)
	}
	c.start = l.clock.Add(1)
	if c.err == nil {
		c.err = do()
	}
	c.end = l.clock.Add(1)
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
	return c.err
}

// ops renders the calls made since the log's from'th as "op:file" in
// order, files named by names.
func (l *sysLog) ops(from int, names map[*os.File]string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, c := range l.calls[from:] {
		out = append(out, c.op+":"+names[c.f])
	}
	return strings.Join(out, " ")
}

func (l *sysLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

// covered reports whether a flush of s that was entered after tick lo and
// had returned by tick hi was durable when it returned: its bytes were
// written back and a successful fdatasync — on any file, the stores share
// a device — started after that and ended before hi; or, not written
// back, s's own fdatasync ran inside the interval.
func (l *sysLog) covered(s *FileStorage, lo, hi int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	var wbEnd int64
	for _, c := range l.calls {
		if c.op == "writeback-wait" && c.f == s.f && c.err == nil && c.start > lo && c.end < hi {
			wbEnd = max(wbEnd, c.end)
		}
	}
	for _, c := range l.calls {
		if c.op != "fdatasync" || c.err != nil || c.end > hi {
			continue
		}
		if wbEnd > 0 && c.start > wbEnd || wbEnd == 0 && c.f == s.f && c.start > lo {
			return true
		}
	}
	return false
}

// testWAL is a FileStorage with the index of its next entry, so appends
// stay a log Load will replay.
type testWAL struct {
	*FileStorage
	next int
}

func (w *testWAL) append(valueLen int) error {
	e := Entry{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: strings.Repeat("v", valueLen)}}
	err := w.AppendBatch([]LogMutation{{PrevIndex: w.next, Entries: []Entry{e}}})
	w.next++
	return err
}

// openGrownWAL opens a store on sc — on the coalescer the store opened
// with when sc is nil — and appends until it holds a run-ahead with at
// least 32 KiB to spare, so the flushes a test goes on to make stay in
// place. It skips the test where the filesystem under t.TempDir is not
// one FileStorage writes back on.
func openGrownWAL(t *testing.T, path string, sc *SyncCoalescer) *testWAL {
	t.Helper()
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if sc != nil {
		s.SetSyncer(sc)
	}
	w := &testWAL{FileStorage: s}
	for s.alloc-s.pos < 32<<10 {
		if err := w.append(1024); err != nil {
			t.Fatal(err)
		}
	}
	if !s.overwrites {
		t.Skip("the filesystem under t.TempDir() is not on the overwrite-in-place list")
	}
	return w
}

func sumSyncs(ws []*testWAL) (n int64) {
	for _, w := range ws {
		n += w.Syncs()
	}
	return n
}

// The count and the order, not the speed: four stores flushing together,
// round after round, cost one fdatasync per round between them — on the
// parent each request cost one — and nobody is released before a device
// flush that began after its own bytes had been written back.
func TestCoalescedRoundFlushesOnce(t *testing.T) {
	const stores, rounds = 4, 60
	sc := NewSyncCoalescer(SyncerConfig{})
	dir := t.TempDir()
	ws := make([]*testWAL, stores)
	for i := range ws {
		ws[i] = openGrownWAL(t, filepath.Join(dir, fmt.Sprintf("g%d.wal", i)), sc)
	}
	log := installSysLog(t, nil)
	syncs0, barriers0, requests0 := sumSyncs(ws), sc.Barriers(), sc.Requests()

	// returned[i][k] is the clock when store i's k'th flush returned.
	returned := make([][]int64, stores)
	errs := make([]error, stores)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if err := ws[i].append(40); err != nil {
					errs[i] = err
				}
				returned[i] = append(returned[i], log.clock.Add(1))
			}(i)
		}
		close(start)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}

	syncs, barriers, requests := sumSyncs(ws)-syncs0, sc.Barriers()-barriers0, sc.Requests()-requests0
	t.Logf("%d requests, %d rounds, %d fdatasyncs", requests, barriers, syncs)
	if requests != stores*rounds {
		t.Fatalf("requests = %d, want %d", requests, stores*rounds)
	}
	if barriers == requests {
		t.Fatalf("no round was wider than one in %d gated starts: nothing coalesced, nothing tested", rounds)
	}
	if syncs != barriers {
		t.Errorf("%d fdatasyncs for %d rounds, want one a round", syncs, barriers)
	}
	for i, w := range ws {
		if !w.overwrites {
			t.Errorf("store %d lost its eligibility", i)
		}
		var lo int64
		for k, hi := range returned[i] {
			if !log.covered(w.FileStorage, lo, hi) {
				t.Errorf("store %d flush %d returned with no device flush after its bytes reached the device", i, k)
			}
			lo = hi
		}
	}
}

// heldRound starts a flush of lead in its own goroutine and holds the
// round it leads at the head of the leader's write-back wait — the first
// call the round makes; the flush's own submit has gone by then — until
// release is called, so the test can park exactly the arrivals it wants
// absorbed. The returned channel carries lead's result.
func heldRound(t *testing.T, lead *testWAL, fail func(op string, f *os.File) error) (log *sysLog, release func(), done chan error) {
	t.Helper()
	return heldAt(t, opWriteBackWait, lead, fail)
}

// heldAt is heldRound with the held call named: the one call of op the
// flush makes on lead's file.
func heldAt(t *testing.T, op string, lead *testWAL, fail func(op string, f *os.File) error) (log *sysLog, release func(), done chan error) {
	t.Helper()
	gate, entered := make(chan struct{}), make(chan struct{})
	log = installSysLog(t, func(o string, f *os.File) error {
		if o == op && f == lead.f {
			close(entered)
			<-gate
		}
		if fail != nil {
			return fail(o, f)
		}
		return nil
	})
	done = make(chan error, 1)
	go func() { done <- lead.append(40) }()
	<-entered
	return log, func() { close(gate) }, done
}

// flushParked starts a flush of w and returns once it is parked on sc as
// the n'th waiter.
func flushParked(t *testing.T, sc *SyncCoalescer, w *testWAL, valueLen, n int) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.append(valueLen) }()
	waitPending(t, sc, n)
	return done
}

// A member whose flush extends its run-ahead changed its file's size, so
// it takes its own fdatasync — after its stage's write-backs, although it
// parked ahead of c — and since every write-back of the round has
// finished by then, it is the round's device flush too: no closing one
// is issued. Its flush still submitted its bytes before it queued; the
// round waits on no write-back of b's.
func TestExtendingMemberFlushesForTheRound(t *testing.T) {
	sc := NewSyncCoalescer(SyncerConfig{})
	dir := t.TempDir()
	a := openGrownWAL(t, filepath.Join(dir, "a.wal"), sc)
	b := openGrownWAL(t, filepath.Join(dir, "b.wal"), sc)
	c := openGrownWAL(t, filepath.Join(dir, "c.wal"), sc)
	names := map[*os.File]string{a.f: "a", b.f: "b", c.f: "c"}
	syncs := []int64{a.Syncs(), b.Syncs(), c.Syncs()}
	bAlloc, barriers := b.alloc, sc.Barriers()

	log, release, aDone := heldRound(t, a, nil)
	bDone := flushParked(t, sc, b, int(b.alloc-b.pos), 1) // outruns the run-ahead
	cDone := flushParked(t, sc, c, 40, 2)
	release()
	for _, done := range []chan error{aDone, bDone, cDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if b.alloc == bAlloc || b.inPlace {
		t.Fatalf("b's flush was meant to extend its run-ahead: alloc %d → %d, inPlace %v", bAlloc, b.alloc, b.inPlace)
	}
	if got, want := log.ops(0, names), "writeback:a writeback:b writeback:c writeback-wait:a writeback-wait:c fdatasync:b"; got != want {
		t.Fatalf("syscalls = %q, want %q", got, want)
	}
	for i, w := range []*testWAL{a, b, c} {
		if got, want := w.Syncs()-syncs[i], int64(i%2); got != want { // b alone
			t.Errorf("%s: %+d fdatasyncs, want %+d", names[w.f], got, want)
		}
		if w.LastBarrierWidth() != 3 {
			t.Errorf("%s: width %d, want 3", names[w.f], w.LastBarrierWidth())
		}
	}
	if sc.Barriers() != barriers+1 {
		t.Fatalf("%d rounds, want 1", sc.Barriers()-barriers)
	}
}

// A foreign SyncTarget says nothing about which device it flushed, so
// beside in-place files it takes its own SyncDevice and the round still
// closes with one fdatasync for the files it wrote back.
func TestForeignTargetBesideInPlaceFiles(t *testing.T) {
	sc := NewSyncCoalescer(SyncerConfig{})
	dir := t.TempDir()
	a := openGrownWAL(t, filepath.Join(dir, "a.wal"), sc)
	b := openGrownWAL(t, filepath.Join(dir, "b.wal"), sc)
	names := map[*os.File]string{a.f: "a", b.f: "b"}
	foreign, barriers := &fakeTarget{}, sc.Barriers()

	log, release, aDone := heldRound(t, a, nil)
	foreignDone := make(chan error, 1)
	go func() {
		width, err := sc.Sync(foreign)
		if err == nil && width != 3 {
			err = fmt.Errorf("foreign target's width = %d, want 3", width)
		}
		foreignDone <- err
	}()
	waitPending(t, sc, 1)
	bDone := flushParked(t, sc, b, 40, 2)
	release()
	for _, done := range []chan error{aDone, foreignDone, bDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.ops(0, names), "writeback:a writeback:b writeback-wait:a writeback-wait:b fdatasync:a"; got != want {
		t.Fatalf("syscalls = %q, want %q", got, want)
	}
	if foreign.count() != 1 || sc.Barriers() != barriers+1 {
		t.Fatalf("foreign SyncDevice calls = %d in %d rounds, want 1 in 1", foreign.count(), sc.Barriers()-barriers)
	}
}

// Load truncates the run-ahead away, so the first flush after it grows
// the file: it submits its bytes and then takes the file's own fdatasync,
// with no wait between. The flushes after the run-ahead is back are
// written back, and a round of one is write-back, wait, flush, in that
// order on the one file.
func TestFirstFlushAfterLoadIsNotInPlace(t *testing.T) {
	sc := NewSyncCoalescer(SyncerConfig{})
	path := filepath.Join(t.TempDir(), "a.wal")
	w := openGrownWAL(t, path, sc)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	st, err := s.Load()
	if err != nil || len(st.Entries) != w.next {
		t.Fatalf("Load: %d entries, %v; want %d", len(st.Entries), err, w.next)
	}
	s.SetSyncer(sc)
	re := &testWAL{FileStorage: s, next: w.next}
	names := map[*os.File]string{s.f: "a"}

	log := installSysLog(t, nil)
	for i, want := range []string{
		"writeback:a fdatasync:a", // lands past the end of the file, and extends it
		"writeback:a writeback-wait:a fdatasync:a",
		"writeback:a writeback-wait:a fdatasync:a",
	} {
		from, syncs, barriers := log.len(), s.Syncs(), sc.Barriers()
		if err := re.append(40); err != nil {
			t.Fatal(err)
		}
		if got := log.ops(from, names); got != want {
			t.Fatalf("flush %d after Load: syscalls = %q, want %q", i, got, want)
		}
		if s.Syncs() != syncs+1 || sc.Barriers() != barriers+1 || s.LastBarrierWidth() != 1 {
			t.Fatalf("flush %d after Load: %+d fdatasyncs, %+d rounds, width %d; want +1, +1, 1",
				i, s.Syncs()-syncs, sc.Barriers()-barriers, s.LastBarrierWidth())
		}
	}
}

// A fresh store's flushes change its file's size, so each takes its own
// fdatasync; each still submits its bytes before it queues. Under delayed
// allocation that puts the file's new blocks in the journal transaction
// then running, so when another store's fdatasync commits it, this one's
// finds its transaction committed: a set-up's files share commits instead
// of taking one each in series. b, parked behind a's held fdatasync, has
// submitted before either fdatasync runs.
func TestSizeChangingFlushSubmitsBeforeItQueues(t *testing.T) {
	sc := NewSyncCoalescer(SyncerConfig{})
	dir := t.TempDir()
	ws := make([]*testWAL, 2)
	for i, name := range []string{"a.wal", "b.wal"} {
		s, err := OpenFileStorage(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		s.SetSyncer(sc)
		ws[i] = &testWAL{FileStorage: s}
	}
	a, b := ws[0], ws[1]
	names := map[*os.File]string{a.f: "a", b.f: "b"}

	log, release, aDone := heldAt(t, opFdatasync, a, nil)
	bDone := flushParked(t, sc, b, 40, 1)
	if got, want := log.ops(0, names), "writeback:a writeback:b"; got != want {
		t.Fatalf("with a's fdatasync held and b parked: syscalls = %q, want %q", got, want)
	}
	release()
	for _, done := range []chan error{aDone, bDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.ops(0, names), "writeback:a writeback:b fdatasync:a fdatasync:b"; got != want {
		t.Fatalf("syscalls = %q, want %q", got, want)
	}
	for _, w := range ws {
		if w.inPlace || w.Syncs() != 1 {
			t.Errorf("%s: inPlace %v, %d fdatasyncs; want a flush of its own", names[w.f], w.inPlace, w.Syncs())
		}
	}
}

// A store nobody called SetSyncer on flushes through the coalescer it
// opened with, so an in-place flush is the same round of one a shared
// coalescer runs — submit, wait, flush — and costs its file one fdatasync.
// There is no second barrier path for it to take instead.
func TestUnsharedStoreFlushesThroughItsOwnRound(t *testing.T) {
	a := openGrownWAL(t, filepath.Join(t.TempDir(), "a.wal"), nil)
	names := map[*os.File]string{a.f: "a"}
	log := installSysLog(t, nil)
	syncs := a.Syncs()
	if err := a.append(40); err != nil {
		t.Fatal(err)
	}
	if !a.inPlace {
		t.Fatal("the flush was meant to stay in place")
	}
	if got, want := log.ops(0, names), "writeback:a writeback-wait:a fdatasync:a"; got != want {
		t.Fatalf("syscalls = %q, want %q", got, want)
	}
	if a.Syncs() != syncs+1 || a.LastBarrierWidth() != 1 {
		t.Fatalf("%+d fdatasyncs, width %d; want +1, 1", a.Syncs()-syncs, a.LastBarrierWidth())
	}
}

// The submit is the owner's, not the round's: a flush starts its own
// write-back before it queues, so the device works on b's bytes while a's
// round is still at its flush, before any round has taken b up. What
// releases b is the three-flag wait in its own round, then a device flush
// that began after it.
func TestParkedFlushHasSubmittedItsWriteBack(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := NewSyncCoalescer(SyncerConfig{Metrics: reg})
	dir := t.TempDir()
	a := openGrownWAL(t, filepath.Join(dir, "a.wal"), sc)
	b := openGrownWAL(t, filepath.Join(dir, "b.wal"), sc)
	names := map[*os.File]string{a.f: "a", b.f: "b"}
	barriers, before := sc.Barriers(), reg.Snapshot()

	log, release, aDone := heldAt(t, opFdatasync, a, nil) // past the absorb: b waits for the next round
	lo := log.clock.Add(1)
	bDone := flushParked(t, sc, b, 40, 1)
	if got, want := log.ops(0, names), "writeback:a writeback-wait:a writeback:b"; got != want {
		t.Fatalf("with b parked behind a's flush: syscalls = %q, want %q", got, want)
	}
	release()
	for _, done := range []chan error{aDone, bDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	hi := log.clock.Add(1)
	if got, want := log.ops(0, names), "writeback:a writeback-wait:a writeback:b fdatasync:a writeback-wait:b fdatasync:b"; got != want {
		t.Fatalf("syscalls = %q, want %q", got, want)
	}
	if !log.covered(b.FileStorage, lo, hi) {
		t.Fatal("b returned with no device flush after its three-flag wait")
	}
	if sc.Barriers() != barriers+2 || b.LastBarrierWidth() != 1 {
		t.Fatalf("b was meant to lead a round of its own: %d rounds, width %d", sc.Barriers()-barriers, b.LastBarrierWidth())
	}
	// The round's length is on /metrics: two rounds of one stage and one
	// closing flush each, and b parked for as long as a's flush was held.
	after := reg.Snapshot()
	for name, want := range map[string]int64{
		metrics.Label("raft_sync_stage_seconds", "node", "0", "stage", "wait"):  2,
		metrics.Label("raft_sync_stage_seconds", "node", "0", "stage", "flush"): 2,
		metrics.Label("raft_sync_parked_seconds", "node", "0"):                  1,
	} {
		h := after.Histograms[name]
		if got := h.Count - before.Histograms[name].Count; got != want || h.Sum <= before.Histograms[name].Sum {
			t.Errorf("%s: %+d observations, sum %v → %v; want %+d and time on them", name, got, before.Histograms[name].Sum, h.Sum, want)
		}
	}
}

// A round of one is submit, yield, wait, flush: the stage-head yield has
// the file's I/O under it. At one P a witness readied just before the
// append runs at that yield (all but every 61st, when the scheduler serves
// the yielder first) and finds the submit, and only the submit, logged.
func TestYieldFallsBetweenSubmitAndWait(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const appends = 60
	sc := NewSyncCoalescer(SyncerConfig{})
	a := openGrownWAL(t, filepath.Join(t.TempDir(), "a.wal"), sc)
	names := map[*os.File]string{a.f: "a"}
	log := installSysLog(t, nil)

	ready, saw := make(chan struct{}), make(chan int, 1)
	defer close(ready)
	go func() {
		for range ready {
			saw <- log.len()
		}
	}()
	between := 0
	for i := 0; i < appends; i++ {
		runtime.Gosched() // the witness is parked on ready again
		from := log.len()
		ready <- struct{}{}
		if err := a.append(40); err != nil {
			t.Fatal(err)
		}
		if got, want := log.ops(from, names), "writeback:a writeback-wait:a fdatasync:a"; got != want {
			t.Fatalf("append %d: syscalls = %q, want %q", i, got, want)
		}
		if <-saw == from+1 {
			between++
		}
	}
	t.Logf("witness ran between submit and wait in %d of %d", between, appends)
	if between < appends*3/4 {
		t.Fatalf("the yield fell between the submit and the wait in %d of %d flushes, want at least %d", between, appends, appends*3/4)
	}
}
