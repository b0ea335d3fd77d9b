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
// All load-time failures wrap the core error sentinels: corrupt bytes
// and checksum mismatches test true against core.ErrCorrupt, short
// reads against core.ErrTruncated, and header/section size
// inconsistencies against core.ErrShape.
//
// Supported formats: csr, csr16, csr-du (incl. RLE streams), csr-vi,
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
	"spmv/internal/csrvi"
	"spmv/internal/dcsr"
)

var magic = [4]byte{'S', 'P', 'M', 'V'}

const version = 2

// Write serializes a supported format to w.
func Write(w io.Writer, f core.Format) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
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
	if _, err := bw.Write(hdr.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(hdr.Bytes()))
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	var err error
	switch m := f.(type) {
	case *csr.Matrix:
		err = writeSections(bw, int32Bytes(m.RowPtr), int32Bytes(m.ColInd), floatBytes(m.Values))
	case *csr.Matrix16:
		err = writeSections(bw, int32Bytes(m.RowPtr), uint16Bytes(m.ColInd), floatBytes(m.Values))
	case *csrdu.Matrix:
		if m.IndexWidth() != 0 {
			err = writeSections(bw, m.Ctl,
				[]byte{byte(m.IndexWidth())}, viBytes(m.VI8, m.VI16, m.VI32), floatBytes(m.Unique))
		} else {
			err = writeSections(bw, m.Ctl, floatBytes(m.Values))
		}
	case *dcsr.Matrix:
		err = writeSections(bw, m.Cmds, floatBytes(m.Values))
	case *csrvi.Matrix:
		err = writeSections(bw, int32Bytes(m.RowPtr), int32Bytes(m.ColInd),
			[]byte{byte(m.IndexWidth())}, viBytes(m.VI8, m.VI16, m.VI32), floatBytes(m.Unique))
	default:
		return fmt.Errorf("matfile: unsupported format %q", name)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
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
	sr := &sectionReader{br: br, src: src, total: total}
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
		return nil, fmt.Errorf("matfile: unsupported version %d", ver)
	}
	withCRC := ver >= 2
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
	if withCRC {
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
	maxSection := (nnz+rows+cols+2)*8 + 1024
	// The container stores raw streams; rebuilding through triplets or a
	// validating FromRaw revalidates all invariants at O(nnz) cost, which
	// the encoders' construction already pays. That keeps the reader
	// immune to malformed ctl/command streams.
	f, err := readBody(sr, name, rows, cols, nnz, maxSection, withCRC)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, core.Corruptf("matfile: trailing data after last section")
	}
	if err := core.Verify(f); err != nil {
		return nil, fmt.Errorf("matfile: %w", err)
	}
	return f, nil
}

func readBody(sr *sectionReader, name string, rows, cols, nnz, maxSection int64, withCRC bool) (core.Format, error) {
	switch name {
	case "csr", "csr16":
		rp, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		ci, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		vs, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		rowPtr, values := bytesInt32(rp), bytesFloat(vs)
		var colInd []int32
		if name == "csr16" {
			if len(ci)%2 != 0 {
				return nil, core.Shapef("matfile: csr16 column section size %d is odd", len(ci))
			}
			colInd = make([]int32, len(ci)/2)
			for i := range colInd {
				colInd[i] = int32(binary.LittleEndian.Uint16(ci[i*2:]))
			}
		} else {
			colInd = bytesInt32(ci)
		}
		if int64(len(rowPtr)) != rows+1 || int64(len(colInd)) != nnz || int64(len(values)) != nnz {
			return nil, core.Shapef("matfile: section sizes inconsistent with header")
		}
		return rebuildCSR(colInd, rowPtr, values, rows, cols, name == "csr16")
	case "csr-du", "csr-du-rle":
		ctl, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		vals, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		values := bytesFloat(vals)
		if int64(len(values)) != nnz {
			return nil, core.Shapef("matfile: value count %d != header nnz %d", len(values), nnz)
		}
		// The tag, not the stream, says whether the encoder ran with RLE:
		// a csr-du-rle matrix whose rows are all shorter than RLEMin
		// holds no RLE unit.
		return csrdu.FromRaw(ctl, values, int(rows), int(cols), name == "csr-du-rle")
	case "dcsr":
		cmds, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		vals, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		values := bytesFloat(vals)
		if int64(len(values)) != nnz {
			return nil, core.Shapef("matfile: value count %d != header nnz %d", len(values), nnz)
		}
		return dcsr.FromRaw(cmds, values, int(rows), int(cols))
	case "csr-vi":
		rowPtr, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		colInd, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		width, vi, uniq, err := readVISections(sr, maxSection, withCRC, nnz)
		if err != nil {
			return nil, err
		}
		return rebuildVI(bytesInt32(rowPtr), bytesInt32(colInd), width, vi, uniq, rows, cols, nnz)
	case "csr-du-vi":
		ctl, err := sr.section(maxSection, withCRC)
		if err != nil {
			return nil, err
		}
		width, vi, uniq, err := readVISections(sr, maxSection, withCRC, nnz)
		if err != nil {
			return nil, err
		}
		if width == 0 {
			// The plain codec: the csr-du matrix it is.
			return csrdu.FromRaw(ctl, uniq, int(rows), int(cols), false)
		}
		return csrdu.FromRawVI(ctl, width, vi, uniq, int(rows), int(cols))
	default:
		return nil, fmt.Errorf("matfile: unsupported format %q", name)
	}
}

// readVISections reads the width/val_ind/unique section triple shared
// by the csr-vi and csr-du-vi layouts and checks it against the
// header's nnz. Width 1, 2 or 4 is the dictionary codec: one val_ind
// entry per non-zero. Width 0 is the plain codec: an empty val_ind and
// a unique section of exactly nnz values, in stream order.
func readVISections(sr *sectionReader, maxSection int64, withCRC bool, nnz int64) (width int, vi []byte, uniq []float64, err error) {
	wb, err := sr.section(maxSection, withCRC)
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
	vi, err = sr.section(maxSection, withCRC)
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(vi)) != nnz*int64(width) {
		return 0, nil, nil, core.Shapef("matfile: val_ind size %d inconsistent with header nnz %d", len(vi), nnz)
	}
	uq, err := sr.section(maxSection, withCRC)
	if err != nil {
		return 0, nil, nil, err
	}
	uniq = bytesFloat(uq)
	if width == 0 && int64(len(uniq)) != nnz {
		return 0, nil, nil, core.Shapef("matfile: plain codec stores %d values for header nnz %d", len(uniq), nnz)
	}
	return width, vi, uniq, nil
}

func writeSections(w *bufio.Writer, sections ...[]byte) error {
	for _, s := range sections {
		if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
			return err
		}
		if _, err := w.Write(s); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(s)); err != nil {
			return err
		}
	}
	return nil
}

// validRowPtr checks that a row pointer is monotone and spans exactly
// [0, nnz] — a corrupt one would send the rebuild loops out of bounds.
func validRowPtr(rowPtr []int32, nnz int64) error {
	if len(rowPtr) == 0 || rowPtr[0] != 0 || int64(rowPtr[len(rowPtr)-1]) != nnz {
		return core.Corruptf("matfile: row pointer does not span nnz")
	}
	for i := 1; i < len(rowPtr); i++ {
		if rowPtr[i] < rowPtr[i-1] {
			return core.Corruptf("matfile: row pointer not monotone at %d", i)
		}
	}
	return nil
}

func rebuildCSR(colInd, rowPtr []int32, values []float64, rows, cols int64, wide16 bool) (core.Format, error) {
	if err := validRowPtr(rowPtr, int64(len(values))); err != nil {
		return nil, err
	}
	c := core.NewCOO(int(rows), int(cols))
	for i := int64(0); i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colInd[k] < 0 || int64(colInd[k]) >= cols {
				return nil, core.Corruptf("matfile: column %d out of range", colInd[k])
			}
			c.Add(int(i), int(colInd[k]), values[k])
		}
	}
	if wide16 {
		return csr.From16(c)
	}
	return csr.FromCOO(c)
}

func rebuildVI(rowPtr, colInd []int32, width int, vi []byte, uniq []float64, rows, cols, nnz int64) (core.Format, error) {
	if int64(len(rowPtr)) != rows+1 || int64(len(colInd)) != nnz {
		return nil, core.Shapef("matfile: section sizes inconsistent with header")
	}
	if err := validRowPtr(rowPtr, nnz); err != nil {
		return nil, err
	}
	c := core.NewCOO(int(rows), int(cols))
	for i := int64(0); i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			idx := int(k)
			switch width {
			case 1:
				idx = int(vi[k])
			case 2:
				idx = int(binary.LittleEndian.Uint16(vi[int(k)*2:]))
			case 4:
				idx = int(binary.LittleEndian.Uint32(vi[int(k)*4:]))
			}
			if idx >= len(uniq) {
				return nil, core.Corruptf("matfile: value index %d out of range", idx)
			}
			if colInd[k] < 0 || int64(colInd[k]) >= cols {
				return nil, core.Corruptf("matfile: column %d out of range", colInd[k])
			}
			c.Add(int(i), int(colInd[k]), uniq[idx])
		}
	}
	return csrvi.FromCOO(c)
}

func int32Bytes(s []int32) []byte {
	out := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func bytesInt32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func uint16Bytes(s []uint16) []byte {
	out := make([]byte, 2*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint16(out[i*2:], v)
	}
	return out
}

func floatBytes(s []float64) []byte {
	out := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func bytesFloat(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func viBytes(vi8 []uint8, vi16 []uint16, vi32 []uint32) []byte {
	switch {
	case vi8 != nil:
		return append([]byte(nil), vi8...)
	case vi16 != nil:
		return uint16Bytes(vi16)
	default:
		out := make([]byte, 4*len(vi32))
		for i, v := range vi32 {
			binary.LittleEndian.PutUint32(out[i*4:], v)
		}
		return out
	}
}
