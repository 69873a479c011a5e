// Package wire holds the binary codec primitives behind the session
// snapshot format: little-endian fixed-width appenders, an error-latching
// Reader whose length reads can never allocate past the buffer they decode
// from, and a checksummed envelope (Seal/Open) that makes corrupt,
// truncated or version-bumped input a detectable condition instead of a
// panic or a garbage value.
//
// The format is deliberately dumb: fixed-width integers, length-prefixed
// byte strings, count-prefixed sequences. Every consumer (internal/search,
// internal/solve) re-derives whatever state it can from the primary tables
// it decodes, so the wire shape stays small and a malformed payload can at
// worst fail validation — it never becomes live inconsistent state.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendF64 appends the IEEE-754 bits of v.
func AppendF64(buf []byte, v float64) []byte {
	return AppendU64(buf, math.Float64bits(v))
}

// AppendString appends a u64 length prefix followed by the raw bytes.
func AppendString(buf []byte, s string) []byte {
	buf = AppendU64(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a u64 length prefix followed by the raw bytes.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = AppendU64(buf, uint64(len(b)))
	return append(buf, b...)
}

// Reader decodes a payload produced with the appenders above. The first
// failed read latches an error; every later read returns the zero value, so
// decoders can run straight-line and check Err once at the end (validation
// of the decoded VALUES remains the caller's job).
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a payload for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched decode error, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail latches the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads 4 little-endian bytes.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Bool reads one byte, failing on anything but 0 or 1.
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
	default:
		r.fail("bool byte %d", b[0])
		return false
	}
}

// F64 reads the IEEE-754 bits of a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string. The length is validated against
// the remaining payload before any allocation, so a corrupt prefix cannot
// drive an enormous make.
func (r *Reader) String() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail("string length %d exceeds remaining %d", n, r.Remaining())
		return ""
	}
	return string(r.take(int(n)))
}

// Bytes reads a length-prefixed byte string (a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail("bytes length %d exceeds remaining %d", n, r.Remaining())
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

// Count reads a u64 sequence count and validates it against the remaining
// payload assuming each element occupies at least elemBytes bytes, so a
// corrupt count can never drive an allocation past the buffer being
// decoded. elemBytes must be ≥ 1.
func (r *Reader) Count(elemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64(r.Remaining()/elemBytes) {
		r.fail("count %d exceeds remaining %d bytes at %d bytes each",
			n, r.Remaining(), elemBytes)
		return 0
	}
	return int(n)
}

// Envelope framing: magic, version, payload length, CRC-32C of the payload,
// then the payload. Open rejects anything that does not check out — wrong
// magic, unknown version, truncation, trailing garbage, checksum mismatch —
// with a descriptive error and touches nothing else, which is what lets
// snapshot restore degrade to an empty session instead of error-looping.
const magic = "SVSN"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal frames a payload: magic + version + length + CRC-32C + payload.
func Seal(version uint32, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+16+len(payload))
	out = append(out, magic...)
	out = AppendU32(out, version)
	out = AppendU64(out, uint64(len(payload)))
	out = AppendU32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// Open validates a sealed frame and returns the payload. The version must
// match exactly: snapshot formats are rebuildable caches, so cross-version
// migration is deliberately not attempted.
func Open(data []byte, version uint32) ([]byte, error) {
	head := len(magic) + 16
	if len(data) < head {
		return nil, fmt.Errorf("wire: frame truncated at %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wire: bad magic %q", data[:len(magic)])
	}
	r := NewReader(data[len(magic):])
	gotVersion := r.U32()
	length := r.U64()
	sum := r.U32()
	if gotVersion != version {
		return nil, fmt.Errorf("wire: version %d, want %d", gotVersion, version)
	}
	payload := data[head:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("wire: payload length %d, header says %d", len(payload), length)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("wire: payload checksum mismatch")
	}
	return payload, nil
}
