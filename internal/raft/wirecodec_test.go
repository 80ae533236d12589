package raft

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"ooc/internal/codec/bin"
)

type customCmd struct {
	N    int
	Tags []string
}

func TestEntryCodecRoundTrip(t *testing.T) {
	cases := [][]Entry{
		nil,
		{},
		{{Term: 1, Command: Noop{}}},
		{{Term: 2, Command: KVCommand{Op: "set", Key: "k", Value: "v"}}},
		{{Term: 3, Command: DS{Value: "decided"}}},
		{{Term: 4, Command: DS{Value: 42}}},
		{{Term: 5, Command: DS{Value: nil}}},
		{{Term: 6, Command: []byte{1, 2, 3}}},
		{{Term: 7, Command: "bare string"}},
		{{Term: 8, Command: int64(-9)}},
		{{Term: 9, Command: true}},
		{{Term: 10, Command: nil}},
		{
			{Term: 12, Command: KVCommand{Op: "set", Key: "x", Value: "1"}},
			{Term: 12, Command: KVCommand{Op: "delete", Key: "x"}},
			{Term: 13, Command: Noop{}},
		},
	}
	var dec EntryDecoder
	for i, es := range cases {
		enc, err := AppendWireEntries(nil, es)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		r := bin.NewReader(enc)
		got, err := dec.ReadEntries(r)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := es
		if len(es) == 0 {
			want = nil // empty and nil slices both decode to nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip = %#v, want %#v", i, got, want)
		}
		if r.Len() != 0 {
			t.Fatalf("case %d: %d undecoded bytes", i, r.Len())
		}
	}
}

// TestEntryCodecRefusesForeignCommands: a command outside the closed
// set, bare or inside a D&S, has no encoding, and the error names its
// type.
func TestEntryCodecRefusesForeignCommands(t *testing.T) {
	for _, cmd := range []any{customCmd{N: 7, Tags: []string{"a", "b"}}, DS{Value: customCmd{N: 1}}} {
		_, err := AppendWireEntries(nil, []Entry{{Term: 11, Command: cmd}})
		if err == nil || !strings.Contains(err.Error(), "raft.customCmd") {
			t.Fatalf("%#v: err = %v, want a refusal naming raft.customCmd", cmd, err)
		}
	}
}

func TestEntryCodecMatchesGobSemantics(t *testing.T) {
	// The differential oracle at the entry level: a sequence encoded by
	// the binary codec and by gob must decode to the same values.
	es := []Entry{
		{Term: 1, Command: Noop{}},
		{Term: 2, Command: KVCommand{Op: "set", Key: "alpha", Value: "1"}},
		{Term: 2, Command: DS{Value: "v"}},
	}
	enc, err := AppendWireEntries(nil, es)
	if err != nil {
		t.Fatal(err)
	}
	var dec EntryDecoder
	viaCodec, err := dec.ReadEntries(bin.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(es); err != nil {
		t.Fatal(err)
	}
	var viaGob []Entry
	if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCodec, viaGob) {
		t.Fatalf("codec path %#v != gob path %#v", viaCodec, viaGob)
	}
}

func TestEntryDecoderInternsRepeats(t *testing.T) {
	es := []Entry{{Term: 1, Command: KVCommand{Op: "set", Key: "hot-key", Value: "vv"}}}
	enc, err := AppendWireEntries(nil, es)
	if err != nil {
		t.Fatal(err)
	}
	var dec EntryDecoder
	if _, err := dec.ReadEntries(bin.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	// Steady state: decoding the same bytes again allocates the entry
	// slice and nothing else — strings intern, and so does the boxed
	// command.
	allocs := testing.AllocsPerRun(100, func() {
		_, err = dec.ReadEntries(bin.NewReader(enc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("steady-state entry decode allocates %.1f/op; want 1, the entry slice", allocs)
	}
}

func TestReadEntriesRejectsHugeCount(t *testing.T) {
	// A corrupt count must error out before sizing any allocation.
	enc := bin.AppendUvarint(nil, 1<<40)
	var dec EntryDecoder
	if _, err := dec.ReadEntries(bin.NewReader(enc)); err == nil {
		t.Fatal("oversized entry count decoded without error")
	}
}
