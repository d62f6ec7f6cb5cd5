// Package ckpt provides the versioned binary codec that deterministic
// checkpoints are written in. The format is deliberately simple:
//
//	magic "PSCK" | u16 version | sections... | sha256 over everything before
//
// A section is a length-prefixed name marker followed by arbitrary
// primitives; Reader.Section verifies the marker, so a snapshot whose
// component order drifts from the restore order fails loudly instead of
// silently misinterpreting bytes. All integers are little-endian and
// length-prefixed where variable; floats travel as raw IEEE-754 bits so a
// round trip is bit-exact. Maps must be written in sorted key order by the
// caller (the codec has no map primitive on purpose — deterministic bytes
// are the caller's proof obligation, and sorting at the call site keeps it
// visible).
//
// Errors on the Reader are sticky: the first failure poisons the reader and
// every subsequent primitive returns the zero value, so restore code can
// decode an entire component and check r.Err() once.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the current checkpoint format version. Bump on any layout
// change; Open refuses mismatched versions so a stale snapshot is diagnosed
// as such instead of misdecoding.
const Version = 2

var magic = [4]byte{'P', 'S', 'C', 'K'}

// Writer accumulates a checkpoint payload.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the header already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	return w
}

// Section emits a named marker delimiting the next group of primitives.
func (w *Writer) Section(name string) { w.String(name) }

// U64 appends one unsigned 64-bit value.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U32 appends one unsigned 32-bit value.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I64 appends one signed 64-bit value (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends a platform int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends one boolean byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends one float64 as raw IEEE-754 bits (bit-exact round trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Len returns the current payload size in bytes (header included).
func (w *Writer) Len() int { return len(w.buf) }

// Finish seals the checkpoint: the sha256 of everything written so far is
// appended and the complete byte slice returned. The Writer must not be
// used afterwards.
func (w *Writer) Finish() []byte {
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	out := w.buf
	w.buf = nil
	return out
}

// Reader decodes a checkpoint produced by Writer.
type Reader struct {
	data []byte
	off  int
	err  error
}

// Open verifies the magic, version, and trailing integrity hash, and returns
// a Reader positioned at the first section.
func Open(data []byte) (*Reader, error) {
	if len(data) < len(magic)+2+sha256.Size {
		return nil, fmt.Errorf("ckpt: snapshot too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("ckpt: snapshot format v%d, this build reads v%d", v, Version)
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); [sha256.Size]byte(tail) != sum {
		return nil, fmt.Errorf("ckpt: integrity hash mismatch — snapshot corrupt or truncated")
	}
	return &Reader{data: body, off: 6}, nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Failf lets decoders poison the reader with a semantic error (e.g. a
// decoded length that disagrees with the rebuilt topology). Like codec
// errors it is sticky and surfaces from Err.
func (r *Reader) Failf(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("truncated: need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Section verifies the next marker matches name.
func (r *Reader) Section(name string) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail("section mismatch: snapshot has %q where %q expected", got, name)
	}
}

// U64 reads one unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one unsigned 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads one signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a platform int stored as 64 bits.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one boolean byte.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("invalid boolean byte %#x at offset %d", b[0], r.off-1)
	return false
}

// F64 reads one float64 from raw IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte slice (a copy-free view into the
// snapshot; copy it if it must outlive the snapshot buffer).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail("truncated: byte slice of %d exceeds remaining %d", n, r.Remaining())
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
