// Package snapshot implements the on-disk container for frozen solver
// state: a versioned flat binary format of checksummed sections whose
// payloads are flat little-endian uint32 arrays (plus raw byte blobs for
// string tables). The encoding is designed so that a decoder can alias
// index slices directly into the single read buffer — on little-endian
// hosts a section's []uint32 view is the file's bytes, no per-element
// copy or allocation — while remaining loadable (with one copy) on
// big-endian hosts.
//
// Layout:
//
//	offset 0   magic "RSNP" (4 bytes)
//	offset 4   format version (uint32 LE)
//	offset 8   section count n (uint32 LE)
//	offset 12  reserved (0)
//	offset 16  SHA-256 over data[48:] (32 bytes)
//	offset 48  section table: n entries of {id, off, len, crc32} (16 bytes)
//	...        section payloads, each 8-byte aligned
//
// Integrity is layered: the SHA-256 covers everything after the header
// proper (section table and payloads), and each section additionally
// carries a CRC32 so that targeted corruption is attributed to a
// section. Every length and offset is validated against the file size
// before any allocation, so a hostile or truncated file can never make
// the reader allocate more than O(len(data)).
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// FormatVersion is the container format version. Any incompatible change
// to the section layout of any producer (core, pdm) must bump it; a
// reader seeing a different version fails with ErrVersion, which a
// caller treats as "build live", never as a wrong result.
// Version 2: pdm skeletons cover only the entry's call-graph slice.
const FormatVersion = 2

const (
	magic       = "RSNP"
	headerSize  = 48
	sectionSize = 16
	maxSections = 4096
)

// Sentinel errors. Detail errors wrap one of these; callers classify
// with errors.Is.
var (
	// ErrFormat marks data that is not a snapshot container at all.
	ErrFormat = errors.New("snapshot: not a snapshot container")
	// ErrVersion marks a well-formed container of another format version.
	ErrVersion = errors.New("snapshot: format version mismatch")
	// ErrCorrupt marks a container that fails integrity or structural
	// validation.
	ErrCorrupt = errors.New("snapshot: corrupt container")
)

// hostLittle reports whether this host is little-endian; on such hosts
// uint32 sections alias the read buffer instead of being copied.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Writer accumulates sections and serializes them with Finish. Section
// ids must be unique; writing a duplicate id panics (a producer bug, not
// an input condition).
type Writer struct {
	ids  map[uint32]bool
	secs []wsection
}

type wsection struct {
	id      uint32
	payload []byte
}

// NewWriter returns an empty container writer.
func NewWriter() *Writer {
	return &Writer{ids: make(map[uint32]bool)}
}

// Bytes adds a raw byte section.
func (w *Writer) Bytes(id uint32, b []byte) {
	if w.ids[id] {
		panic(fmt.Sprintf("snapshot: duplicate section id %d", id))
	}
	w.ids[id] = true
	w.secs = append(w.secs, wsection{id, b})
}

// Uint32s adds a section holding a flat little-endian uint32 array.
func (w *Writer) Uint32s(id uint32, v []uint32) {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	w.Bytes(id, b)
}

// Finish lays out the container and returns its bytes.
func (w *Writer) Finish() []byte {
	n := len(w.secs)
	off := headerSize + sectionSize*n
	offs := make([]int, n)
	for i, s := range w.secs {
		off = (off + 7) &^ 7 // 8-byte align every payload
		offs[i] = off
		off += len(s.payload)
	}
	data := make([]byte, off)
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[4:], FormatVersion)
	binary.LittleEndian.PutUint32(data[8:], uint32(n))
	for i, s := range w.secs {
		e := data[headerSize+sectionSize*i:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], uint32(offs[i]))
		binary.LittleEndian.PutUint32(e[8:], uint32(len(s.payload)))
		binary.LittleEndian.PutUint32(e[12:], crc32.ChecksumIEEE(s.payload))
		copy(data[offs[i]:], s.payload)
	}
	sum := sha256.Sum256(data[headerSize:])
	copy(data[16:48], sum[:])
	return data
}

type span struct {
	off, n int
}

// Reader is a validated view over a container's bytes. The sections
// returned by Bytes and (on little-endian hosts) Uint32s alias the
// buffer passed to NewReader; the caller must not mutate it while the
// decoded state is live.
type Reader struct {
	data []byte
	secs map[uint32]span
}

// NewReader validates the container header, checksums and section table
// of data and returns a reader over it. All validation errors wrap
// ErrFormat, ErrVersion or ErrCorrupt.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerSize || string(data[:4]) != magic {
		return nil, ErrFormat
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, reader expects %d", ErrVersion, v, FormatVersion)
	}
	if binary.LittleEndian.Uint32(data[12:]) != 0 {
		return nil, fmt.Errorf("%w: reserved header field is non-zero", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if n > maxSections || headerSize+sectionSize*n > len(data) {
		return nil, fmt.Errorf("%w: section table (%d entries) exceeds file size %d", ErrCorrupt, n, len(data))
	}
	sum := sha256.Sum256(data[headerSize:])
	if string(sum[:]) != string(data[16:48]) {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorrupt)
	}
	r := &Reader{data: data, secs: make(map[uint32]span, n)}
	for i := 0; i < n; i++ {
		e := data[headerSize+sectionSize*i:]
		id := binary.LittleEndian.Uint32(e[0:])
		off := uint64(binary.LittleEndian.Uint32(e[4:]))
		length := uint64(binary.LittleEndian.Uint32(e[8:]))
		crc := binary.LittleEndian.Uint32(e[12:])
		if off < uint64(headerSize+sectionSize*n) || off+length > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d spans [%d,%d) outside file of %d bytes", ErrCorrupt, id, off, off+length, len(data))
		}
		if _, dup := r.secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		if crc32.ChecksumIEEE(data[off:off+length]) != crc {
			return nil, fmt.Errorf("%w: CRC mismatch in section %d", ErrCorrupt, id)
		}
		r.secs[id] = span{int(off), int(length)}
	}
	return r, nil
}

// Has reports whether section id is present.
func (r *Reader) Has(id uint32) bool {
	_, ok := r.secs[id]
	return ok
}

// Bytes returns the raw payload of section id, aliased into the read
// buffer.
func (r *Reader) Bytes(id uint32) ([]byte, error) {
	s, ok := r.secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	return r.data[s.off : s.off+s.n : s.off+s.n], nil
}

// Uint32s returns section id as a []uint32. On little-endian hosts the
// slice aliases the read buffer (zero copy, zero allocation); otherwise
// it is decoded into a fresh slice. The payload length must be a
// multiple of 4.
func (r *Reader) Uint32s(id uint32) ([]uint32, error) {
	b, err := r.Bytes(id)
	if err != nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: section %d has length %d, not a uint32 array", ErrCorrupt, id, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4), nil
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// Reseal returns a copy of data with every validly-bounded section CRC
// and the SHA-256 recomputed. It exists for decoder-hardening tests: a
// fuzzer that flips bits in a sealed container dies at the SHA-256
// check before structural validation is ever exercised, so the harness
// mutates first and reseals after. Reseal itself never panics; data too
// short or foreign to parse as a container is returned unchanged.
func Reseal(data []byte) []byte {
	if len(data) < headerSize || string(data[:4]) != magic {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	n := int(binary.LittleEndian.Uint32(out[8:]))
	if n <= maxSections && headerSize+sectionSize*n <= len(out) {
		for i := 0; i < n; i++ {
			e := out[headerSize+sectionSize*i:]
			off := uint64(binary.LittleEndian.Uint32(e[4:]))
			length := uint64(binary.LittleEndian.Uint32(e[8:]))
			if off >= headerSize && off+length <= uint64(len(out)) {
				binary.LittleEndian.PutUint32(e[12:], crc32.ChecksumIEEE(out[off:off+length]))
			}
		}
	}
	sum := sha256.Sum256(out[headerSize:])
	copy(out[16:48], sum[:])
	return out
}

// StringBuilder interns strings into a blob + offsets pair of sections.
// Ref returns a stable index usable in other sections; the zero builder
// is not valid, use NewStringBuilder.
type StringBuilder struct {
	index map[string]uint32
	blob  []byte
	offs  []uint32 // cumulative ends; offs[0] == 0, len == count+1
}

// NewStringBuilder returns an empty string-table builder.
func NewStringBuilder() *StringBuilder {
	return &StringBuilder{index: make(map[string]uint32), offs: []uint32{0}}
}

// Ref interns s and returns its table index.
func (b *StringBuilder) Ref(s string) uint32 {
	if i, ok := b.index[s]; ok {
		return i
	}
	i := uint32(len(b.offs) - 1)
	b.index[s] = i
	b.blob = append(b.blob, s...)
	b.offs = append(b.offs, uint32(len(b.blob)))
	return i
}

// Flush writes the table as two sections.
func (b *StringBuilder) Flush(w *Writer, idBlob, idOffs uint32) {
	w.Bytes(idBlob, b.blob)
	w.Uint32s(idOffs, b.offs)
}

// Strings is a decoded string table; At materializes one string per
// call, so decoders that store refs pay for a string only when it is
// actually rendered.
type Strings struct {
	blob []byte
	offs []uint32
}

// ReadStrings loads and validates the table written by Flush.
func ReadStrings(r *Reader, idBlob, idOffs uint32) (Strings, error) {
	blob, err := r.Bytes(idBlob)
	if err != nil {
		return Strings{}, err
	}
	offs, err := r.Uint32s(idOffs)
	if err != nil {
		return Strings{}, err
	}
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != uint32(len(blob)) {
		return Strings{}, fmt.Errorf("%w: string table offsets do not cover blob", ErrCorrupt)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return Strings{}, fmt.Errorf("%w: string table offsets not monotone", ErrCorrupt)
		}
	}
	return Strings{blob: blob, offs: offs}, nil
}

// Count returns the number of interned strings.
func (t Strings) Count() int { return len(t.offs) - 1 }

// At returns string i.
func (t Strings) At(i uint32) (string, error) {
	if int(i) >= t.Count() {
		return "", fmt.Errorf("%w: string ref %d out of range (%d strings)", ErrCorrupt, i, t.Count())
	}
	return string(t.blob[t.offs[i]:t.offs[i+1]]), nil
}
