// Package wire is the little-endian binary substrate under the durable
// serve plane: a growing append Writer, an error-latching bounds-checked
// Reader, and the two framings every persistent artifact uses — a
// whole-file frame (magic + version + length + payload + CRC32-C) for
// snapshots, and a self-delimiting record frame (length + CRC32-C +
// payload) for write-ahead logs.
//
// The Reader is built for hostile input: every accessor validates
// bounds before touching the buffer, length-prefixed reads refuse
// counts that cannot fit in the remaining bytes (so corrupt input can
// never force a huge allocation), and the first failure latches — all
// subsequent reads return zero values, and the caller checks Err once
// at the end. Nothing in this package panics on malformed data.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32-C table shared by both framings (the same
// polynomial storage systems use, with hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// --- Writer -----------------------------------------------------------

// Writer accumulates a little-endian encoding. The zero value is ready
// to use; Bytes returns the accumulated buffer.
type Writer struct {
	buf []byte
}

// Grow pre-sizes the buffer for n more bytes.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		nb := make([]byte, len(w.buf), len(w.buf)+n)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// Bytes returns the encoded buffer (owned by the Writer).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a u32 length prefix and the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a u32 length prefix and the raw bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes verbatim, with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// --- Reader -----------------------------------------------------------

// ErrTruncated reports input that ended before a read completed.
var ErrTruncated = errors.New("wire: truncated input")

// Reader decodes a buffer written by Writer. The first error latches:
// every later read returns a zero value, so decode sequences read
// straight through and check Err (or Close) once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close returns the latched error, or an error if unread bytes remain —
// a full decode must consume its input exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Fail latches err (the first call wins); decoders use it to surface
// validation failures through the same channel as truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf latches a formatted error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Raw reads n bytes as a view into the input, not a copy, for a
// decoder that makes more than one pass over a run of records.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool, rejecting any byte but 0 and 1 (a corrupted flag
// must fail loudly, not silently normalize on re-encode).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errors.New("wire: bad bool byte"))
		return false
	}
}

// Count reads a u32 element count and validates that count*elemSize
// fits in the remaining input, so corrupt counts can never drive a
// pathological allocation. elemSize is the minimum encoded size of one
// element; pass 1 when elements are single bytes.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > r.Remaining()/elemSize {
		r.Failf("wire: count %d exceeds remaining input", n)
		return 0
	}
	return n
}

// String reads a string written by Writer.String.
func (r *Reader) String() string {
	n := r.Count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a byte slice written by Writer.Blob (copied out of the
// input buffer).
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// --- file frame -------------------------------------------------------

// File frame layout: magic (8 bytes) | version u32 | payloadLen u64 |
// payload | crc32c u32, where the CRC covers everything before it —
// header included, so a flipped version or length byte is as
// detectable as a flipped payload byte, and a torn write is caught no
// matter where it was cut.

// MagicLen is the required length of a file-frame magic string.
const MagicLen = 8

const fileHeaderLen = MagicLen + 4 + 8

// SealFrame wraps payload in a file frame.
func SealFrame(magic string, version uint32, payload []byte) []byte {
	if len(magic) != MagicLen {
		panic(fmt.Sprintf("wire: magic %q must be %d bytes", magic, MagicLen))
	}
	var w Writer
	w.Grow(fileHeaderLen + len(payload) + 4)
	w.Raw([]byte(magic))
	w.U32(version)
	w.U64(uint64(len(payload)))
	w.Raw(payload)
	w.U32(Checksum(w.Bytes()))
	return w.Bytes()
}

// OpenFrame validates and unwraps a file frame, returning the version
// and payload (a sub-slice of data). Truncation, a wrong magic, a
// length mismatch, trailing bytes, and a CRC mismatch are all errors.
func OpenFrame(magic string, data []byte) (version uint32, payload []byte, err error) {
	if len(magic) != MagicLen {
		panic(fmt.Sprintf("wire: magic %q must be %d bytes", magic, MagicLen))
	}
	if len(data) < fileHeaderLen+4 {
		return 0, nil, fmt.Errorf("wire: frame too short (%d bytes): %w", len(data), ErrTruncated)
	}
	if string(data[:MagicLen]) != magic {
		return 0, nil, fmt.Errorf("wire: bad magic %q (want %q)", data[:MagicLen], magic)
	}
	version = binary.LittleEndian.Uint32(data[MagicLen:])
	plen := binary.LittleEndian.Uint64(data[MagicLen+4:])
	if plen != uint64(len(data)-fileHeaderLen-4) {
		return 0, nil, fmt.Errorf("wire: frame payload length %d does not match %d data bytes", plen, len(data)-fileHeaderLen-4)
	}
	payload = data[fileHeaderLen : fileHeaderLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := Checksum(data[:len(data)-4]); got != want {
		return 0, nil, fmt.Errorf("wire: frame checksum %#x, want %#x", got, want)
	}
	return version, payload, nil
}

// --- record frame -----------------------------------------------------

// Record frame layout: payloadLen u32 | crc32c(payload) u32 | payload.
// Records are concatenated into a log; a torn tail is detected by the
// length or CRC and rolled back to the last intact record.

// MaxRecord bounds one record's payload; anything larger in a length
// header is treated as corruption rather than an allocation request.
const MaxRecord = 1 << 20

// recordHeaderLen is the fixed per-record framing overhead.
const recordHeaderLen = 8

// ErrTornRecord reports a record whose framing or checksum is invalid —
// the torn tail of a crashed log append.
var ErrTornRecord = errors.New("wire: torn record")

// AppendRecord appends a record frame around payload to dst.
func AppendRecord(dst, payload []byte) []byte {
	if len(payload) > MaxRecord {
		panic(fmt.Sprintf("wire: record payload %d exceeds MaxRecord", len(payload)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// NextRecord splits the first record off a log buffer, returning its
// payload (a sub-slice of data) and the remainder. An empty buffer
// returns (nil, nil, nil); a damaged or incomplete head record returns
// ErrTornRecord.
func NextRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	if len(data) < recordHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d-byte partial header", ErrTornRecord, len(data))
	}
	plen := binary.LittleEndian.Uint32(data)
	if plen > MaxRecord {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrTornRecord, plen)
	}
	if uint32(len(data)-recordHeaderLen) < plen {
		return nil, nil, fmt.Errorf("%w: payload cut at %d of %d bytes", ErrTornRecord, len(data)-recordHeaderLen, plen)
	}
	payload = data[recordHeaderLen : recordHeaderLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[4:])
	if got := Checksum(payload); got != want {
		return nil, nil, fmt.Errorf("%w: checksum %#x, want %#x", ErrTornRecord, got, want)
	}
	return payload, data[recordHeaderLen+int(plen):], nil
}
