package raft

import (
	"fmt"

	"ooc/internal/codec/bin"
)

// This file is the binary codec for log entries and the commands inside
// them — the innermost layer of the hand-rolled wire/disk format
// (DESIGN.md §3.5). It lives in package raft because both consumers of
// entry encoding sit on opposite sides of an import boundary: the
// FileStorage record codec (this package) and the message codec
// (internal/codec, which imports this package). Entries encode as
//
//	[uvarint count] then per entry: [zigzag term][command]
//
// and a command is a one-byte tag followed by a tag-specific body. The
// command kinds are a closed set — Noop, KVCommand, D&S, plus the scalar
// value kinds D&S wraps — listed once, in commandTag; Propose refuses
// anything else before it reaches the log.

// Command tags. New kinds append to the list; existing values are wire
// format and must never be renumbered (see the version rules in
// DESIGN.md §3.5). 15, the retired gob fallback, is never to be reused.
const (
	cmdNil    = 0
	cmdNoop   = 1
	cmdKV     = 2
	cmdDS     = 3
	cmdBytes  = 4
	cmdString = 5
	cmdInt    = 6
	cmdInt64  = 7
	cmdBool   = 8
)

// AppendWireEntries appends the wire form of a log entry slice.
func AppendWireEntries(dst []byte, es []Entry) ([]byte, error) {
	dst = bin.AppendUvarint(dst, uint64(len(es)))
	var err error
	for i := range es {
		dst = bin.AppendVarint(dst, int64(es[i].Term))
		if dst, err = appendCommand(dst, es[i].Command); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// commandTag names cmd's wire kind. Its cases are the one list of
// command kinds the log carries; any other type, at any depth inside a
// D&S, has no encoding.
func commandTag(cmd any) (byte, error) {
	switch v := cmd.(type) {
	case nil:
		return cmdNil, nil
	case Noop:
		return cmdNoop, nil
	case KVCommand:
		return cmdKV, nil
	case DS:
		if _, err := commandTag(v.Value); err != nil {
			return 0, err
		}
		return cmdDS, nil
	case []byte:
		return cmdBytes, nil
	case string:
		return cmdString, nil
	case int:
		return cmdInt, nil
	case int64:
		return cmdInt64, nil
	case bool:
		return cmdBool, nil
	}
	return 0, fmt.Errorf("raft: command type %T has no wire encoding", cmd)
}

// appendCommand appends one tagged command (or D&S value).
func appendCommand(dst []byte, cmd any) ([]byte, error) {
	tag, err := commandTag(cmd)
	if err != nil {
		return dst, err
	}
	dst = append(dst, tag)
	switch tag {
	case cmdKV:
		kv := cmd.(KVCommand)
		dst = bin.AppendString(dst, kv.Op)
		dst = bin.AppendString(dst, kv.Key)
		return bin.AppendString(dst, kv.Value), nil
	case cmdDS:
		return appendCommand(dst, cmd.(DS).Value)
	case cmdBytes:
		return bin.AppendBytes(dst, cmd.([]byte)), nil
	case cmdString:
		return bin.AppendString(dst, cmd.(string)), nil
	case cmdInt:
		return bin.AppendVarint(dst, int64(cmd.(int))), nil
	case cmdInt64:
		return bin.AppendVarint(dst, cmd.(int64)), nil
	case cmdBool:
		return bin.AppendBool(dst, cmd.(bool)), nil
	}
	return dst, nil // nil and Noop: the tag is the whole command
}

// internLimit bounds each interning table in an EntryDecoder. Real
// workloads draw ops and keys from small closed sets, so the tables hit
// constantly; once a table fills (an adversarially wide key space, or
// high-entropy values), insertion stops and decoding simply allocates
// for misses — the same cost as not interning at all.
const (
	internLimit   = 4096
	internMaxOver = 64 // don't intern strings longer than this
)

// EntryDecoder decodes entries and commands, amortizing steady-state
// allocations: repeated strings (ops, keys) intern to a single shared
// string, repeated KV commands intern to a single pre-boxed `any`, and
// A zero EntryDecoder is
// ready to use; it is not safe for concurrent use (give each decoding
// goroutine its own).
type EntryDecoder struct {
	strs map[string]string
	cmds map[KVCommand]any
}

// internString returns a stable string equal to b, reusing a previously
// decoded instance when possible. The map index with a string([]byte)
// key compiles to a no-allocation lookup, so steady-state hits are free.
func (d *EntryDecoder) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxOver {
		if d.strs == nil {
			d.strs = make(map[string]string, 64)
		}
		if len(d.strs) < internLimit {
			d.strs[s] = s
		}
	}
	return s
}

// internKV returns a pre-boxed `any` for kv, so a repeated command costs
// no interface allocation on decode.
func (d *EntryDecoder) internKV(kv KVCommand) any {
	if c, ok := d.cmds[kv]; ok {
		return c
	}
	var c any = kv
	if d.cmds == nil {
		d.cmds = make(map[KVCommand]any, 64)
	}
	if len(d.cmds) < internLimit {
		d.cmds[kv] = c
	}
	return c
}

// ReadEntries decodes an AppendWireEntries-encoded slice from r into a
// fresh slice. Decoded commands never alias r's input.
func (d *EntryDecoder) ReadEntries(r *bin.Reader) ([]Entry, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each entry costs at least two bytes on the wire; a count beyond
	// that bound is corrupt and must not size an allocation.
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("raft: entry count %d exceeds frame (%d bytes left)", n, r.Len())
	}
	var es []Entry
	for i := uint64(0); i < n; i++ {
		term := r.Int()
		cmd, err := d.readCommand(r)
		if err != nil {
			return nil, err
		}
		es = append(es, Entry{Term: term, Command: cmd})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return es, nil
}

// readCommand decodes one tagged command.
func (d *EntryDecoder) readCommand(r *bin.Reader) (any, error) {
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case cmdNil:
		return nil, nil
	case cmdNoop:
		return noopBoxed, nil
	case cmdKV:
		op := d.internString(r.View())
		key := d.internString(r.View())
		val := d.internString(r.View())
		if err := r.Err(); err != nil {
			return nil, err
		}
		return d.internKV(KVCommand{Op: op, Key: key, Value: val}), nil
	case cmdDS:
		v, err := d.readCommand(r)
		if err != nil {
			return nil, err
		}
		return DS{Value: v}, nil
	case cmdBytes:
		return r.Bytes(), r.Err()
	case cmdString:
		return d.internString(r.View()), r.Err()
	case cmdInt:
		return r.Int(), r.Err()
	case cmdInt64:
		return r.Varint(), r.Err()
	case cmdBool:
		return r.Bool(), r.Err()
	default:
		return nil, fmt.Errorf("raft: unknown command tag %d", tag)
	}
}

// noopBoxed is the shared boxed Noop{}; boxing a zero-size struct is
// already allocation-free, but sharing one value also makes repeated
// no-ops pointer-identical, which keeps them cheap to compare in tests.
var noopBoxed any = Noop{}
