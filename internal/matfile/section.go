package matfile

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"spmv/internal/core"
)

// stageSize is the staging buffer every section passes through on its
// way from the container's bytes to its array, and every typed section
// on its way back in Write: no whole-section []byte copy is built, and
// each chunk's CRC is taken while it is in cache. A multiple of every
// element size.
const stageSize = 32 << 10

// countingReader counts the bytes pulled from the underlying reader,
// so the section reader can tell how much of a size-bounded input
// remains even through the bufio layer's readahead.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// sectionReader reads the container's length-prefixed sections. Every
// length is checked against the header-derived per-section cap; when
// the input's total size is known it is additionally checked against
// the bytes actually remaining *before* any allocation — the
// alloc-bomb guard for attacker-reachable inputs (uploads, files).
type sectionReader struct {
	br      *bufio.Reader
	src     *countingReader
	total   int64 // total input size, or -1 when unknown
	maxLen  int64 // the header-derived cap on any section's length
	withCRC bool  // v2 container: each section ends in its CRC32
	stage   []byte
}

// remaining reports the bytes left in a size-bounded input: the total
// minus what the caller has consumed so far (bytes read from the
// source, minus those still sitting unread in the bufio buffer).
func (s *sectionReader) remaining() int64 {
	return s.total - (s.src.n - int64(s.br.Buffered()))
}

// length reads one section's length and checks it against the cap and,
// on a sized input, against the bytes remaining for the section and
// its CRC.
func (s *sectionReader) length() (int64, error) {
	var n int64
	if err := binary.Read(s.br, binary.LittleEndian, &n); err != nil {
		return 0, core.Truncatedf("matfile: section length: %v", err)
	}
	if n < 0 || n > s.maxLen {
		return 0, core.Corruptf("matfile: invalid section length %d", n)
	}
	if s.total >= 0 {
		// Sized input: a length the input cannot possibly satisfy is
		// rejected here, before the allocation it would imply.
		need := n
		if s.withCRC {
			need += 4
		}
		if rem := s.remaining(); need > rem {
			return 0, core.Corruptf("matfile: section length %d exceeds remaining input %d", n, rem)
		}
	}
	return n, nil
}

// checksum reads a v2 section's stored CRC32 and compares it with sum,
// the CRC of the section's bytes as read.
func (s *sectionReader) checksum(sum uint32) error {
	if !s.withCRC {
		return nil
	}
	var stored uint32
	if err := binary.Read(s.br, binary.LittleEndian, &stored); err != nil {
		return core.Truncatedf("matfile: section checksum: %v", err)
	}
	if sum != stored {
		return core.Corruptf("matfile: section checksum mismatch (%08x != %08x)", sum, stored)
	}
	return nil
}

// readSection reads one section of size-byte little-endian elements
// into a new array, a staging buffer at a time, taking its CRC32 as the
// bytes pass; decode fills dst from the first size*len(dst) bytes of
// b. On a sized input the array is allocated whole once the length
// has passed the remaining-input check. On an unsized one it grows as
// bytes arrive, so a lying multi-gigabyte length fails with a
// truncation error after consuming only what the stream really holds.
// It returns the section's length in bytes: a ragged tail is decoded
// as far as whole elements go, and the caller refuses it
// (wholeElements) once the section's checksum has passed.
func readSection[T any](s *sectionReader, size int, decode func(dst []T, b []byte)) ([]T, int64, error) {
	n, err := s.length()
	if err != nil {
		return nil, 0, err
	}
	capacity := int64(0) // unsized: the array grows as bytes arrive
	if s.total >= 0 {
		capacity = n / int64(size)
	}
	out := make([]T, 0, capacity)
	var sum uint32
	for done := int64(0); done < n; {
		b := s.stage[:min(n-done, int64(len(s.stage)))]
		if got, err := io.ReadFull(s.br, b); err != nil {
			return nil, 0, core.Truncatedf("matfile: section body: %d of %d bytes: %v", done+int64(got), n, err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, b)
		at := len(out)
		out = slices.Grow(out, len(b)/size)[:at+len(b)/size]
		decode(out[at:], b)
		done += int64(len(b))
	}
	if err := s.checksum(sum); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

func (s *sectionReader) bytes() ([]byte, error) {
	b, _, err := readSection(s, 1, func(dst, b []byte) { copy(dst, b) })
	return b, err
}

func (s *sectionReader) float64s() ([]float64, error) {
	v, n, err := readSection(s, 8, decodeFloat64)
	if err == nil {
		err = wholeElements(n, 8)
	}
	return v, err
}

// wholeElements refuses a section that is not a whole number of
// size-byte elements: a ragged tail is corruption, never padding.
func wholeElements(n int64, size int) error {
	if n%int64(size) != 0 {
		return core.Corruptf("matfile: section of %d bytes is not a whole number of %d-byte elements", n, size)
	}
	return nil
}

// sectionWriter writes the container's sections. With a nil w it only
// counts: n is then the bytes the sections will take. The first write
// error sticks: every later call does nothing, and Write reports it.
type sectionWriter struct {
	w     io.Writer
	stage []byte
	n     int
	err   error
}

// put writes a fixed-size value: a section's length or CRC32.
func (s *sectionWriter) put(v any) {
	if s.err == nil {
		s.err = binary.Write(s.w, binary.LittleEndian, v)
	}
}

func (s *sectionWriter) write(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

// raw writes b as one section.
func (s *sectionWriter) raw(b []byte) {
	if s.n += 8 + len(b) + 4; s.w == nil {
		return
	}
	s.put(int64(len(b)))
	s.write(b)
	s.put(crc32.ChecksumIEEE(b))
}

// writeTyped writes v as one section of size-byte little-endian
// elements, encoded a staging buffer at a time.
func writeTyped[T any](s *sectionWriter, v []T, size int, encode func(b []byte, v []T)) {
	if s.n += 8 + size*len(v) + 4; s.w == nil {
		return
	}
	s.put(int64(size * len(v)))
	per := len(s.stage) / size
	var sum uint32
	for i := 0; i < len(v) && s.err == nil; i += per {
		chunk := v[i:min(i+per, len(v))]
		b := s.stage[:size*len(chunk)]
		encode(b, chunk)
		sum = crc32.Update(sum, crc32.IEEETable, b)
		s.write(b)
	}
	s.put(sum)
}

// The element codecs: encode fills b, of exactly size*len(v) bytes,
// from v; decode fills dst from the first size*len(dst) bytes of b.

func encodeFloat64(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

func decodeFloat64(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func encodeInt32(b []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func decodeInt32(dst []int32, b []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func encodeUint16(b []byte, v []uint16) {
	for i, x := range v {
		binary.LittleEndian.PutUint16(b[2*i:], x)
	}
}

func encodeUint32(b []byte, v []uint32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
}
