// Package matfile stores encoded matrices in a compact binary
// container, so a compressed matrix (the product of an O(nnz) encoding
// pass) can be built once and memory-mapped or streamed by solver
// processes — the deployment mode the paper's formats target, where
// the same matrix is multiplied hundreds of times per run.
//
// Layout (all integers little-endian):
//
//	magic   4 bytes  "SPMV"
//	version 1 byte
//	name    1-byte length + bytes (format name)
//	rows, cols, nnz  8 bytes each
//	header CRC32 (IEEE) over name + dims   [version >= 2]
//	sections: per format, a sequence of length-prefixed byte blobs,
//	          each followed by its CRC32   [version >= 2]
//
// Version 1 files (no checksums) are still readable. Writers always
// produce version 2: with the section checksums, any single-byte
// corruption of a stored stream is detected at load time — structural
// validation alone cannot catch a flipped value byte or a flipped
// index delta that still lands in range.
//
// All load-time failures wrap the core error sentinels: corrupt bytes,
// checksum mismatches, an unknown version and an unknown format tag
// (the retired csr16 among them) test true against core.ErrCorrupt,
// short reads against core.ErrTruncated, and header/section size
// inconsistencies against core.ErrShape.
//
// Supported formats: csr, csr-du (incl. RLE streams), csr-vi,
// csr-du-vi, dcsr. The csr-vi and csr-du-vi layouts end in a
// width/val_ind/unique section triple. A width of 0 is the plain value
// codec, which csr-vi takes where no dictionary pays: an empty val_ind
// and nnz values, in stream order, in the unique section. Under the
// csr-du-vi tag such a triple loads as the csr-du matrix it is.
package matfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/dcsr"
)

var magic = [4]byte{'S', 'P', 'M', 'V'}

const version = 2

// Write serializes a supported format to w. The sections are sized
// before any is written, so a bytes.Buffer destination is grown once to
// the container's size rather than by doubling as the sections stream
// in.
func Write(w io.Writer, f core.Format) error {
	name := f.Name()
	if len(name) > 255 {
		return fmt.Errorf("matfile: format name too long")
	}
	var hdr bytes.Buffer
	hdr.WriteByte(byte(len(name)))
	hdr.WriteString(name)
	for _, v := range []int64{int64(f.Rows()), int64(f.Cols()), int64(f.NNZ())} {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		hdr.Write(tmp[:])
	}
	var sized sectionWriter
	if err := writeBody(&sized, f); err != nil {
		return err
	}
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(len(magic) + 1 + hdr.Len() + 4 + sized.n)
	}
	sw := &sectionWriter{w: w, stage: make([]byte, stageSize)}
	sw.write(magic[:])
	sw.write([]byte{version})
	sw.write(hdr.Bytes())
	sw.put(crc32.ChecksumIEEE(hdr.Bytes()))
	if err := writeBody(sw, f); err != nil {
		return err
	}
	return sw.err
}

// writeBody writes f's sections in the order readBody reads them.
func writeBody(sw *sectionWriter, f core.Format) error {
	switch m := f.(type) {
	case *csr.Matrix:
		switch m.Name() {
		case "csr":
			writeTyped(sw, m.RowPtr, 4, encodeInt32)
			writeTyped(sw, m.ColInd, 4, encodeInt32)
			writeTyped(sw, m.Values, 8, encodeFloat64)
		case "csr-vi":
			writeTyped(sw, m.RowPtr, 4, encodeInt32)
			writeTyped(sw, m.ColInd, 4, encodeInt32)
			writeVI(sw, m.IndexWidth(), m.VI8, m.VI16, m.VI32, m.Unique)
		default:
			return fmt.Errorf("matfile: unsupported format %q", m.Name())
		}
	case *csrdu.Matrix:
		sw.raw(m.Ctl)
		switch {
		case m.IndexWidth() != 0:
			writeVI(sw, m.IndexWidth(), m.VI8, m.VI16, m.VI32, m.Unique)
		case m.Name() == "csr-du-vi":
			// The plain codec under the csr-du-vi tag (FromRawPlainVI).
			writeVI(sw, 0, nil, nil, nil, m.Values)
		default:
			writeTyped(sw, m.Values, 8, encodeFloat64)
		}
	case *dcsr.Matrix:
		sw.raw(m.Cmds)
		writeTyped(sw, m.Values, 8, encodeFloat64)
	default:
		return fmt.Errorf("matfile: unsupported format %q", f.Name())
	}
	return nil
}

// writeVI writes the width/val_ind/unique section triple; width 0 is
// the plain codec, with an empty val_ind.
func writeVI(sw *sectionWriter, width int, vi8 []uint8, vi16 []uint16, vi32 []uint32, unique []float64) {
	sw.raw([]byte{byte(width)})
	switch width {
	case 0:
		sw.raw(nil)
	case 1:
		sw.raw(vi8)
	case 2:
		writeTyped(sw, vi16, 2, encodeUint16)
	default:
		writeTyped(sw, vi32, 4, encodeUint32)
	}
	writeTyped(sw, unique, 8, encodeFloat64)
}

// Read deserializes a matrix written by Write. The concrete type of the
// result matches the stored format name. Version 2 files are checksum-
// verified section by section; the rebuilt matrix is additionally run
// through its format verifier before being returned, so a matrix that
// loads without error is safe to hand to the trusting SpMV kernels.
//
// Read cannot know how many bytes r really holds, so a section header
// claiming a huge length is only bounded by the header's nnz-derived
// cap; allocation for large claims grows incrementally as bytes
// actually arrive, never up front. When the input's total size is
// known — a file, an HTTP upload — prefer ReadSized, which rejects
// lying lengths outright.
func Read(r io.Reader) (core.Format, error) {
	return readAll(r, -1)
}

// ReadSized is Read for inputs of known total size (an upload body, a
// stat-able file). Every section length is checked against the bytes
// actually remaining in the input *before* any allocation, so a
// corrupt or hostile header claiming a multi-gigabyte section fails
// with core.ErrCorrupt immediately instead of attempting the
// allocation — the alloc-bomb guard an attacker-reachable upload
// endpoint needs.
func ReadSized(r io.Reader, total int64) (core.Format, error) {
	if total < 0 {
		return nil, core.Shapef("matfile: negative input size %d", total)
	}
	return readAll(r, total)
}

func readAll(r io.Reader, total int64) (core.Format, error) {
	src := &countingReader{r: r}
	br := bufio.NewReader(src)
	sr := &sectionReader{br: br, src: src, total: total, stage: make([]byte, stageSize)}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, core.Truncatedf("matfile: magic: %v", err)
	}
	if m != magic {
		return nil, core.Corruptf("matfile: bad magic %q", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, core.Truncatedf("matfile: version: %v", err)
	}
	if ver != 1 && ver != 2 {
		return nil, core.Corruptf("matfile: unsupported version %d", ver)
	}
	sr.withCRC = ver >= 2
	hsum := crc32.NewIEEE()
	hr := io.TeeReader(br, hsum)
	var nlen [1]byte
	if _, err := io.ReadFull(hr, nlen[:]); err != nil {
		return nil, core.Truncatedf("matfile: header: %v", err)
	}
	nameB := make([]byte, nlen[0])
	if _, err := io.ReadFull(hr, nameB); err != nil {
		return nil, core.Truncatedf("matfile: header: %v", err)
	}
	var rows, cols, nnz int64
	for _, p := range []*int64{&rows, &cols, &nnz} {
		if err := binary.Read(hr, binary.LittleEndian, p); err != nil {
			return nil, core.Truncatedf("matfile: header: %v", err)
		}
	}
	if sr.withCRC {
		var stored uint32
		if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
			return nil, core.Truncatedf("matfile: header checksum: %v", err)
		}
		if sum := hsum.Sum32(); sum != stored {
			return nil, core.Corruptf("matfile: header checksum mismatch (%08x != %08x)", sum, stored)
		}
	}
	if rows <= 0 || cols <= 0 || nnz < 0 || nnz > math.MaxInt32 {
		return nil, core.Shapef("matfile: invalid shape %dx%d nnz %d", rows, cols, nnz)
	}
	name := string(nameB)
	// Sections can never legitimately exceed this bound (the largest is
	// 8 bytes per nnz); cap allocations so corrupt lengths fail cleanly
	// instead of exhausting memory.
	sr.maxLen = (nnz+rows+cols+2)*8 + 1024
	// The container stores raw streams, and each format adopts them as
	// stored through a validating FromRaw that checks all invariants at
	// O(nnz) cost, which the encoders' construction already pays. That
	// keeps the reader immune to malformed index, ctl and command
	// streams, and is the only verification a matrix gets on load.
	f, err := readBody(sr, name, rows, cols, nnz)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, core.Corruptf("matfile: trailing data after last section")
	}
	return f, nil
}

func readBody(sr *sectionReader, name string, rows, cols, nnz int64) (core.Format, error) {
	switch name {
	case "csr", "csr-vi":
		rowPtr, rpLen, err := readSection(sr, 4, decodeInt32)
		if err != nil {
			return nil, err
		}
		colInd, ciLen, err := readSection(sr, 4, decodeInt32)
		if err != nil {
			return nil, err
		}
		// csr stores one values section; csr-vi the
		// width/val_ind/unique triple.
		var width int
		var vi []byte
		var values []float64
		if name == "csr-vi" {
			width, vi, values, err = readVISections(sr, nnz)
		} else {
			values, err = readValues(sr, nnz)
		}
		if err != nil {
			return nil, err
		}
		// A ragged index section is refused after the value sections
		// are read, so every refusal keeps the class it always had.
		if err := wholeElements(rpLen, 4); err != nil {
			return nil, err
		}
		if err := wholeElements(ciLen, 4); err != nil {
			return nil, err
		}
		if int64(len(rowPtr)) != rows+1 || int64(len(colInd)) != nnz {
			return nil, core.Shapef("matfile: section sizes inconsistent with header")
		}
		return csr.FromRaw(name, rowPtr, colInd, width, vi, values, int(rows), int(cols))
	case "csr-du", "csr-du-rle":
		ctl, err := sr.bytes()
		if err != nil {
			return nil, err
		}
		values, err := readValues(sr, nnz)
		if err != nil {
			return nil, err
		}
		// The tag, not the stream, says whether the encoder ran with RLE:
		// a csr-du-rle matrix whose rows are all shorter than RLEMin
		// holds no RLE unit.
		return csrdu.FromRaw(ctl, values, int(rows), int(cols), name == "csr-du-rle")
	case "dcsr":
		cmds, err := sr.bytes()
		if err != nil {
			return nil, err
		}
		values, err := readValues(sr, nnz)
		if err != nil {
			return nil, err
		}
		return dcsr.FromRaw(cmds, values, int(rows), int(cols))
	case "csr-du-vi":
		ctl, err := sr.bytes()
		if err != nil {
			return nil, err
		}
		width, vi, uniq, err := readVISections(sr, nnz)
		if err != nil {
			return nil, err
		}
		if width == 0 {
			// The plain codec: a csr-du matrix that keeps its tag.
			return csrdu.FromRawPlainVI(ctl, uniq, int(rows), int(cols))
		}
		return csrdu.FromRawVI(ctl, width, vi, uniq, int(rows), int(cols))
	default:
		return nil, core.Corruptf("matfile: unsupported format %q", name)
	}
}

// readValues reads a float64 value section of exactly nnz values.
func readValues(sr *sectionReader, nnz int64) ([]float64, error) {
	values, err := sr.float64s()
	if err == nil && int64(len(values)) != nnz {
		err = core.Shapef("matfile: value count %d != header nnz %d", len(values), nnz)
	}
	return values, err
}

// readVISections reads the width/val_ind/unique section triple shared
// by the csr-vi and csr-du-vi layouts and checks it against the
// header's nnz. Width 1, 2 or 4 is the dictionary codec: one val_ind
// entry per non-zero. Width 0 is the plain codec: an empty val_ind and
// a unique section of exactly nnz values, in stream order.
func readVISections(sr *sectionReader, nnz int64) (width int, vi []byte, uniq []float64, err error) {
	wb, err := sr.bytes()
	if err != nil {
		return 0, nil, nil, err
	}
	if len(wb) != 1 {
		return 0, nil, nil, core.Shapef("matfile: width section is %d bytes, want 1", len(wb))
	}
	width = int(wb[0])
	if width != 0 && width != 1 && width != 2 && width != 4 {
		return 0, nil, nil, core.Corruptf("matfile: invalid val_ind width %d", width)
	}
	vi, err = sr.bytes()
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(vi)) != nnz*int64(width) {
		return 0, nil, nil, core.Shapef("matfile: val_ind size %d inconsistent with header nnz %d", len(vi), nnz)
	}
	if uniq, err = sr.float64s(); err != nil {
		return 0, nil, nil, err
	}
	if width == 0 && int64(len(uniq)) != nnz {
		return 0, nil, nil, core.Shapef("matfile: plain codec stores %d values for header nnz %d", len(uniq), nnz)
	}
	return width, vi, uniq, nil
}
