package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"ooc/internal/raft"
)

func benchAppendEntries(n int) raft.AppendEntries {
	es := make([]raft.Entry, n)
	for i := range es {
		es[i] = raft.Entry{Term: 5, Command: raft.KVCommand{
			Op:    "set",
			Key:   fmt.Sprintf("key-%03d", i%16),
			Value: "value-payload-0123456789",
		}}
	}
	return raft.AppendEntries{
		Term: 5, LeaderID: 0, PrevLogIndex: 1041, PrevLogTerm: 5,
		Entries: es, LeaderCommit: 1040, ReadID: 77,
	}
}

// BenchmarkEncodeAppendEntries pins the encode side of the acceptance
// criterion: 0 allocs/op for steady-state AppendEntries at 1/8/64
// entries, against the gob path it replaced (a fresh Encoder per
// message, as the transport's per-connection stream cannot be reused
// for a fair single-message comparison — but the gob stream encoder is
// also benchmarked, as the transport did amortize its type metadata).
func BenchmarkEncodeAppendEntries(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		msg := benchAppendEntries(n)
		b.Run(fmt.Sprintf("codec/entries=%d", n), func(b *testing.B) {
			// Pre-boxed, as in the real transport: the payload reaches
			// the encoder already inside an `any`.
			var boxed any = msg
			dst := make([]byte, 0, 1<<16)
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, err = Append(dst[:0], boxed)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(dst)))
		})
		b.Run(fmt.Sprintf("gob-stream/entries=%d", n), func(b *testing.B) {
			// The old transport's actual encode path: one long-lived
			// Encoder per connection, type metadata amortized away.
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			var boxed any = msg
			if err := enc.Encode(&boxed); err != nil {
				b.Fatal(err) // prime the type metadata
			}
			var frameLen int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.Encode(&boxed); err != nil {
					b.Fatal(err)
				}
				frameLen = buf.Len()
			}
			b.SetBytes(int64(frameLen))
		})
	}
}

// BenchmarkDecodeAppendEntries pins the decode side: Decoder.Decode,
// the call the transport's receive loop makes, against a long-lived gob
// stream decoder.
func BenchmarkDecodeAppendEntries(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		msg := benchAppendEntries(n)
		frame, err := Append(nil, msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("codec/entries=%d", n), func(b *testing.B) {
			var dec Decoder
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gob-stream/entries=%d", n), func(b *testing.B) {
			// One decode per iteration from a pre-encoded stream of b.N
			// messages, mirroring the old per-connection Decoder.
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			var boxed any = msg
			for i := 0; i < b.N+1; i++ {
				if err := enc.Encode(&boxed); err != nil {
					b.Fatal(err)
				}
			}
			dec := gob.NewDecoder(&buf)
			var first any
			if err := dec.Decode(&first); err != nil {
				b.Fatal(err) // prime the type metadata
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var v any
				if err := dec.Decode(&v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
