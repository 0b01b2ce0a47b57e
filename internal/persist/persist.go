// Package persist implements the on-disk wire format shared by every
// layer that owns durable KB state. Three pieces:
//
//   - Buf/Rd: a little-endian buffer codec whose slice payloads are raw
//     pool dumps — on little-endian hosts an []int32/[]float64/[]uint64
//     pool is written and read back with a single memmove, no
//     per-element decode, so a cold start is bounded by I/O rather than
//     deserialization.
//   - Sectioned file container: magic + a sequence of (kind, length,
//     CRC-32C, payload) sections + an end marker. A file without a
//     valid end marker or with any checksum mismatch is rejected whole;
//     recovery then falls back to the previous snapshot generation.
//   - WAL segments: length-prefixed records (ticket + payload +
//     CRC-32C) with torn-tail truncation on read, so a crash mid-append
//     loses at most the record being written.
//
// The package is pure wire format: it imports nothing from the rest of
// the module, so every layer (factor, gibbs, ground, db, inc, the KB)
// can depend on it without cycles.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether the host is little-endian; on such hosts the
// slice codecs below degenerate to single memmoves.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ---------------------------------------------------------------------
// Buf: append-only encoder.

// Buf is the append-only encoder for snapshot payloads. All integers
// are fixed-width little-endian; slices are a u64 element count
// followed by the raw little-endian element data.
type Buf struct {
	b []byte
}

// Bytes returns the encoded payload.
func (b *Buf) Bytes() []byte { return b.b }

// Len returns the current encoded length.
func (b *Buf) Len() int { return len(b.b) }

func (b *Buf) U8(v uint8) { b.b = append(b.b, v) }

func (b *Buf) Bool(v bool) {
	if v {
		b.U8(1)
	} else {
		b.U8(0)
	}
}

func (b *Buf) U32(v uint32) {
	b.b = append(b.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (b *Buf) U64(v uint64) {
	b.b = append(b.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (b *Buf) I64(v int64) { b.U64(uint64(v)) }

func (b *Buf) F64(v float64) { b.U64(math.Float64bits(v)) }

// rawAppend appends the raw bytes of a slice whose element type is
// size bytes wide. Little-endian hosts take the memmove path.
func rawAppend[T any](b *Buf, s []T, size int) {
	b.U64(uint64(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLE {
		p := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*size)
		b.b = append(b.b, p...)
		return
	}
	// Portable fallback for big-endian hosts (practically unreachable).
	for i := range s {
		switch v := any(s[i]).(type) {
		case int32:
			b.U32(uint32(v))
		case uint32:
			b.U32(v)
		case uint64:
			b.U64(v)
		case float64:
			b.F64(v)
		case bool:
			b.Bool(v)
		default:
			panic("persist: unsupported raw element type")
		}
	}
}

func (b *Buf) I32s(s []int32)   { rawAppend(b, s, 4) }
func (b *Buf) U32s(s []uint32)  { rawAppend(b, s, 4) }
func (b *Buf) U64s(s []uint64)  { rawAppend(b, s, 8) }
func (b *Buf) F64s(s []float64) { rawAppend(b, s, 8) }

// Bools writes a []bool as one byte per element (matching Go's in-memory
// layout, so the little-endian path is a memmove too).
func (b *Buf) Bools(s []bool) { rawAppend(b, s, 1) }

// Ints writes a []int as 64-bit values (no memmove: int width is
// platform-dependent, and these tables are small).
func (b *Buf) Ints(s []int) {
	b.U64(uint64(len(s)))
	for _, v := range s {
		b.I64(int64(v))
	}
}

// Str writes a length-prefixed string.
func (b *Buf) Str(s string) {
	b.U64(uint64(len(s)))
	b.b = append(b.b, s...)
}

// Strs writes a string table in CSR form: count, a u32 length table,
// then the concatenated bytes — two contiguous reads on decode.
func (b *Buf) Strs(s []string) {
	b.U64(uint64(len(s)))
	for _, v := range s {
		b.U32(uint32(len(v)))
	}
	for _, v := range s {
		b.b = append(b.b, v...)
	}
}

// ---------------------------------------------------------------------
// Rd: sticky-error decoder.

// Rd decodes a payload written by Buf. Errors are sticky: after the
// first failure every method returns a zero value and Err() reports
// the original problem, so decode call sites stay linear.
type Rd struct {
	b   []byte
	off int
	err error
	str string // NewRdOwned: b as a string, which decoded strings are cut from
}

func NewRd(b []byte) *Rd { return &Rd{b: b} }

// NewRdOwned is NewRd for a payload the caller gives up: decoded strings
// are cut from b instead of copied out of it, so b must never be written
// again and stays in memory as long as one of them does. Restoring a
// snapshot decodes its image this way — no allocation per persisted
// string, and the KB's strings are one object to the collector.
func NewRdOwned(b []byte) *Rd {
	return &Rd{b: b, str: unsafe.String(unsafe.SliceData(b), len(b))}
}

// Err returns the first decode error, if any.
func (r *Rd) Err() error { return r.err }

// Done reports whether the payload was fully consumed without error.
func (r *Rd) Done() bool { return r.err == nil && r.off == len(r.b) }

// Fail records a structural validation error discovered by a caller
// (e.g. CSR row bounds that do not add up); like internal decode
// errors it is sticky.
func (r *Rd) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: invalid payload: %s at offset %d", what, r.off)
	}
}

func (r *Rd) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: truncated payload reading %s at offset %d", what, r.off)
	}
}

func (r *Rd) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Rd) U8(what string) uint8 {
	p := r.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool decodes a flag: 0 or 1, any other byte fails the decoder (so an
// image that decodes re-encodes to itself).
func (r *Rd) Bool(what string) bool {
	c := r.U8(what)
	if c > 1 {
		r.fail(what)
	}
	return c == 1
}

func (r *Rd) U32(what string) uint32 {
	p := r.take(4, what)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func (r *Rd) U64(what string) uint64 {
	p := r.take(8, what)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func (r *Rd) I64(what string) int64 { return int64(r.U64(what)) }

func (r *Rd) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Count reads a u64 element count and bounds-checks it against the
// remaining payload, at size bytes per element, so a corrupt length
// cannot drive a huge allocation.
func (r *Rd) Count(size int, what string) int {
	n := r.U64(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(size) {
		r.fail(what)
		return 0
	}
	return int(n)
}

// rawRead reads n elements of width size into a freshly allocated
// slice; one memmove on little-endian hosts.
func rawRead[T any](r *Rd, size int, what string) []T {
	n := r.Count(size, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	p := r.take(n*size, what)
	if p == nil {
		return nil
	}
	if hostLE {
		dst := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*size)
		copy(dst, p)
		return out
	}
	sub := Rd{b: p}
	for i := range out {
		switch any(out[i]).(type) {
		case int32:
			out[i] = any(int32(sub.U32(what))).(T)
		case uint32:
			out[i] = any(sub.U32(what)).(T)
		case uint64:
			out[i] = any(sub.U64(what)).(T)
		case float64:
			out[i] = any(sub.F64(what)).(T)
		case bool:
			out[i] = any(sub.Bool(what)).(T)
		default:
			panic("persist: unsupported raw element type")
		}
	}
	return out
}

func (r *Rd) I32s(what string) []int32   { return rawRead[int32](r, 4, what) }
func (r *Rd) U32s(what string) []uint32  { return rawRead[uint32](r, 4, what) }
func (r *Rd) U64s(what string) []uint64  { return rawRead[uint64](r, 8, what) }
func (r *Rd) F64s(what string) []float64 { return rawRead[float64](r, 8, what) }

// Bools reads a []bool written by Buf.Bools; a byte other than 0 or 1
// fails the decoder.
func (r *Rd) Bools(what string) []bool {
	n := r.Count(1, what)
	if r.err != nil || n == 0 {
		return nil
	}
	p := r.take(n, what)
	if p == nil {
		return nil
	}
	out := make([]bool, n)
	for i, c := range p {
		if c > 1 {
			r.fail(what)
			return nil
		}
		out[i] = c == 1
	}
	return out
}

func (r *Rd) Ints(what string) []int {
	n := r.Count(8, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64(what))
	}
	return out
}

// cut returns the n bytes at the cursor as a string.
func (r *Rd) cut(n int, what string) string {
	p := r.take(n, what)
	if p == nil {
		return ""
	}
	if r.str != "" {
		return r.str[r.off-n : r.off]
	}
	return string(p)
}

func (r *Rd) Str(what string) string { return r.cut(r.Count(1, what), what) }

// Strs reads a string table written by Buf.Strs: the length table, then
// the bytes. The strings share one allocation (none on an owned payload).
func (r *Rd) Strs(what string) []string {
	n := r.Count(4, what)
	if r.err != nil || n == 0 {
		return nil
	}
	lens := r.take(4*n, what)
	if lens == nil {
		return nil
	}
	total := 0
	for i := 0; i < n; i++ {
		total += int(binary.LittleEndian.Uint32(lens[4*i:]))
		if total > len(r.b)-r.off {
			r.fail(what)
			return nil
		}
	}
	blob := r.cut(total, what)
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	off := 0
	for i := range out {
		l := int(binary.LittleEndian.Uint32(lens[4*i:]))
		out[i] = blob[off : off+l]
		off += l
	}
	return out
}

// ---------------------------------------------------------------------
// Sectioned file container.

// Section is one typed, independently checksummed region of a snapshot
// file. Payloads are 8-byte aligned in the file so pool dumps land on
// natural boundaries for mmap-style access.
type Section struct {
	Kind    uint32
	Payload []byte
}

const endKind = 0xFFFFFFFF

// FileEnc assembles a snapshot file image in one buffer: the magic, each
// section — Begin, the payload appended through the embedded Buf, End —
// with its CRC-32C, and the end marker that proves the file was written
// out completely. Encoding in place is what keeps a checkpoint's garbage at
// one file image instead of a buffer per section plus their copy.
type FileEnc struct {
	Buf
	payload int // where the open section's payload starts
}

// NewFileEnc starts an image; sizeHint (0 for unknown) is the capacity to
// start from, typically the size of the previous image.
func NewFileEnc(magic uint64, sizeHint int) *FileEnc {
	e := &FileEnc{Buf: Buf{b: make([]byte, 0, sizeHint)}}
	e.U64(magic)
	return e
}

// Begin opens a section: its header, with length and checksum left for End.
func (e *FileEnc) Begin(kind uint32) {
	e.U32(kind)
	e.U32(0) // reserved / pad to 8
	e.U64(0) // length
	e.U32(0) // CRC-32C
	e.U32(0) // pad: payload starts 8-byte aligned
	e.payload = len(e.b)
}

// End closes the open section.
func (e *FileEnc) End() {
	payload := e.b[e.payload:]
	binary.LittleEndian.PutUint64(e.b[e.payload-16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(e.b[e.payload-8:], crc32.Checksum(payload, castagnoli))
	for len(e.b)%8 != 0 {
		e.U8(0)
	}
}

// Finish writes the end marker and returns the image.
func (e *FileEnc) Finish() []byte {
	e.Begin(endKind)
	return e.b
}

// ErrBadFile marks a snapshot file that fails structural validation
// (wrong magic, checksum mismatch, or missing end marker).
var ErrBadFile = errors.New("persist: invalid or incomplete snapshot file")

// DecodeFile validates a snapshot image and returns its sections.
func DecodeFile(magic uint64, data []byte) ([]Section, error) {
	r := NewRd(data)
	if got := r.U64("magic"); r.Err() != nil || got != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFile)
	}
	var secs []Section
	for {
		kind := r.U32("section kind")
		r.U32("section pad")
		n := r.U64("section length")
		crc := r.U32("section crc")
		r.U32("section pad")
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated section header", ErrBadFile)
		}
		if kind == endKind {
			return secs, nil
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section length overflows file", ErrBadFile)
		}
		payload := r.take(int(n), "section payload")
		for r.off%8 != 0 && r.err == nil {
			r.U8("section padding")
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated section payload", ErrBadFile)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrBadFile, kind)
		}
		secs = append(secs, Section{Kind: kind, Payload: payload})
	}
}

// FindSection returns the first section of the given kind, or nil.
func FindSection(secs []Section, kind uint32) []byte {
	for _, s := range secs {
		if s.Kind == kind {
			return s.Payload
		}
	}
	return nil
}

// WriteFileAtomic writes data to path crash-consistently: a temp file
// in the same directory, fsync, rename into place, fsync the directory.
// Readers therefore see either the old file or the complete new one.
// An optional Injector (at most one) is consulted at OpSnapWrite before
// the data write and OpSnapSync before the fsync; an injected error
// aborts the write with the temp file removed, leaving the old file
// untouched.
func WriteFileAtomic(path string, data []byte, injs ...Injector) error {
	var inj Injector
	if len(injs) > 0 {
		inj = injs[0]
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := inject(inj, OpSnapWrite); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = inject(inj, OpSnapSync)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames and unlinks within it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
