// Package bin holds the low-level binary primitives under the repo's
// hand-rolled wire/disk codec (internal/codec and the raft storage
// records): append-style writers that extend a caller-owned []byte —
// zero allocations once the buffer has warmed to its steady-state
// capacity — and a bounds-checked sticky-error Reader for decoding.
//
// The integer encoding is the protobuf family's: unsigned values are
// LEB128 uvarints, signed values are zigzag-mapped first so small
// negatives stay small on the wire. Strings and byte slices are
// length-prefixed with a uvarint; byte slices carry a presence bit
// (length+1, with 0 meaning nil) so nil survives a round trip.
//
// This package is a leaf: it may be imported by anything (including
// internal/raft, whose storage records and wire messages share these
// primitives with internal/codec) and imports nothing.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendUvarint appends v as a LEB128 uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-mapped as a uvarint, so values near zero
// of either sign cost one byte.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// AppendInt appends an int via AppendVarint.
func AppendInt(dst []byte, v int) []byte { return AppendVarint(dst, int64(v)) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s as [uvarint len][raw bytes].
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b as [uvarint len+1][raw bytes], encoding nil as
// length marker 0 so nil-ness survives a round trip (a snapshot field
// that was never set must not decode as an empty-but-present one).
func AppendBytes(dst []byte, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ErrTruncated reports input that ended mid-value.
var ErrTruncated = errors.New("bin: truncated input")

// ErrOverflow reports a varint wider than 64 bits or a length prefix
// larger than the remaining input (the guard that keeps corrupt or
// adversarial frames from provoking huge allocations).
var ErrOverflow = errors.New("bin: malformed varint or length")

// Reader decodes the primitives back out of a byte slice. Errors are
// sticky: after the first failure every subsequent read returns a zero
// value, so decode paths can run straight-line and check Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader aliases b; Bytes and
// View results share b's backing array.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

// Len reports how many bytes remain.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", err, r.off)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Uvarint reads a LEB128 uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 { return unzigzag(r.Uvarint()) }

// Int reads an int-sized Varint, rejecting values that do not fit.
func (r *Reader) Int() int {
	v := r.Varint()
	if v > math.MaxInt || v < math.MinInt {
		r.fail(ErrOverflow)
		return 0
	}
	return int(v)
}

// Bool reads a Byte as a bool; any nonzero value is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// take validates a length prefix against the remaining input and
// consumes that many bytes, returning them as an aliasing subslice.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(ErrOverflow)
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// View reads a string/bytes length prefix and returns the raw bytes
// WITHOUT copying — the result aliases the Reader's input and is only
// valid until that buffer is reused. Callers that retain the data must
// copy (or intern) it.
func (r *Reader) View() []byte { return r.take(r.Uvarint()) }

// String reads a length-prefixed string, copying out of the input.
func (r *Reader) String() string { return string(r.View()) }

// Bytes reads an AppendBytes-encoded slice, copying out of the input;
// the nil marker decodes as nil and an empty slice stays empty-not-nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	v := r.take(n - 1)
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}
