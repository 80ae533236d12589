package raft

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"
)

// The regression benchmarks in this file pin the storage-codec win from
// the gob removal. gobEncodeRecord replicates the old FileStorage.append
// encode path exactly — a fresh gob.Encoder per record, which re-emits
// type metadata and re-walks the any-typed commands every time — so the
// comparison stays honest even now that the production path no longer
// uses gob.

func gobAppendFrame(dst []byte, scratch *bytes.Buffer, r record) ([]byte, error) {
	scratch.Reset()
	if err := gob.NewEncoder(scratch).Encode(r); err != nil {
		return dst, err
	}
	payload := scratch.Bytes()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

func benchEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Term: 3, Command: KVCommand{
			Op:    "set",
			Key:   fmt.Sprintf("key-%03d", i%16),
			Value: "value-payload-0123456789",
		}}
	}
	return es
}

// BenchmarkRecordEncode compares pure encode cost (no I/O) for a log
// record with 1/8/64 entries. The codec path must report 0 allocs/op.
func BenchmarkRecordEncode(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		es := benchEntries(n)
		rec := record{Kind: recordLog, PrevIndex: 41, Entries: es}

		b.Run(fmt.Sprintf("codec/entries=%d", n), func(b *testing.B) {
			scratch := make([]byte, 0, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				scratch, err = appendRecord(scratch[:0], rec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(scratch)))
		})

		b.Run(fmt.Sprintf("gob/entries=%d", n), func(b *testing.B) {
			var scratch bytes.Buffer
			frame := make([]byte, 0, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if frame, err = gobAppendFrame(frame[:0], &scratch, rec); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(scratch.Len()))
		})
	}
}

// BenchmarkFileStorageAppend measures durable records/sec end to end —
// encode, buffered write, and barrier — for both encodings, writing a
// 1-entry log record per op the way a leader persists an un-batched
// proposal. The barrier dominates wall time on most filesystems; the codec's
// win here is the removed per-record allocations and the ~7x smaller
// frame, which show in allocs/op and throughput under load.
func BenchmarkFileStorageAppend(b *testing.B) {
	es := benchEntries(1)

	b.Run("codec", func(b *testing.B) {
		s, err := OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.TruncateAndAppend(i, es); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("gob", func(b *testing.B) {
		// The codec row's file, buffer, run-ahead and barrier — the store's
		// own — so the two rows differ in the encoding and nothing else.
		s, err := OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		if _, err := s.Load(); err != nil {
			b.Fatal(err)
		}
		var scratch bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := record{Kind: recordLog, PrevIndex: i, Entries: es}
			var err error
			if s.buf, err = gobAppendFrame(s.buf, &scratch, rec); err != nil {
				b.Fatal(err)
			}
			s.pos += frameHeaderSize + int64(scratch.Len())
			if err := s.flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoalescedAppend is the same append through a SyncCoalescer, as
// a node's groups make it: each of the stores has one goroutine appending
// b.N one-entry records to its own file, all on one coalescer. ns/op is
// therefore a flush as one caller sees it — its own write and submit, the
// wait for a round, the round — and rounds/flush says how many of those
// rounds the coalescer ran per flush (1 at stores=1; under 1 is sharing).
func BenchmarkCoalescedAppend(b *testing.B) {
	for _, stores := range []int{1, 4} {
		b.Run(fmt.Sprintf("stores=%d", stores), func(b *testing.B) {
			sc := NewSyncCoalescer(SyncerConfig{})
			dir := b.TempDir()
			ws := make([]*testWAL, stores)
			for i := range ws {
				s, err := OpenFileStorage(filepath.Join(dir, fmt.Sprintf("g%d.wal", i)))
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = s.Close() }()
				s.SetSyncer(sc)
				ws[i] = &testWAL{FileStorage: s}
				for s.pos < 16*runAheadMin { // past the flushes that grow the file
					if err := ws[i].append(1024); err != nil {
						b.Fatal(err)
					}
				}
			}
			requests, barriers := sc.Requests(), sc.Barriers()
			errs := make([]error, stores)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i := range ws {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < b.N && errs[i] == nil; k++ {
						errs[i] = ws[i].append(40)
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sc.Barriers()-barriers)/float64(sc.Requests()-requests), "rounds/flush")
		})
	}
}

// TestRecordEncodeZeroAlloc is the acceptance gate for the disk layer:
// a warmed scratch buffer means appending a steady-state log record
// performs no heap allocation at all.
func TestRecordEncodeZeroAlloc(t *testing.T) {
	rec := record{Kind: recordLog, PrevIndex: 7, Entries: benchEntries(8)}
	scratch := make([]byte, 0, 1<<16)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		scratch, err = appendRecord(scratch[:0], rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("record encode allocates %.1f/op; want 0", allocs)
	}
}

// TestRecordCodecSmallerThanGob pins the size win: the binary frame for
// a typical 1-entry log record must be well under half the gob frame.
func TestRecordCodecSmallerThanGob(t *testing.T) {
	rec := record{Kind: recordLog, PrevIndex: 41, Entries: benchEntries(1)}
	bin, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if len(bin)*2 >= buf.Len() {
		t.Fatalf("codec record %dB not <50%% of gob record %dB", len(bin), buf.Len())
	}
}
