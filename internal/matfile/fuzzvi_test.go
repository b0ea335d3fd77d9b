package matfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// viShapes are the structures FuzzReadVI hangs value triples on: rows
// of several lengths, empty rows, one entry, no entry.
func viShapes() []*core.COO {
	one := core.NewCOO(3, 4)
	one.Add(1, 2, 1)
	one.Finalize()
	empty := core.NewCOO(2, 3)
	empty.Finalize()
	return []*core.COO{
		matgen.Banded(rand.New(rand.NewSource(17)), 12, 3, 2, matgen.Values{}),
		matgen.Stencil2D(4),
		matgen.PowerLaw(rand.New(rand.NewSource(18)), 20, 3, 0.8, matgen.Values{}),
		one,
		empty,
	}
}

// viFile is the v2 container of one csr-vi (duvi false) or csr-du-vi
// matrix with c's structure and the given width/val_ind/unique triple.
func viFile(c *core.COO, duvi bool, width byte, vi, unique []byte) []byte {
	name, structure := "csr-vi", [][]byte(nil)
	if duvi {
		du, err := csrdu.FromCOO(c.Clone())
		if err != nil {
			panic(err)
		}
		name, structure = "csr-du-vi", [][]byte{du.Ctl}
	} else {
		m, err := csr.FromCOO(c.Clone())
		if err != nil {
			panic(err)
		}
		structure = [][]byte{int32Bytes(m.RowPtr), int32Bytes(m.ColInd)}
	}
	var hdr bytes.Buffer
	hdr.WriteByte(byte(len(name)))
	hdr.WriteString(name)
	for _, v := range []int64{int64(c.Rows()), int64(c.Cols()), int64(c.Len())} {
		_ = binary.Write(&hdr, binary.LittleEndian, v) // a bytes.Buffer write cannot fail
	}
	var out bytes.Buffer
	out.Write(magic[:])
	out.WriteByte(version)
	out.Write(hdr.Bytes())
	_ = binary.Write(&out, binary.LittleEndian, crc32.ChecksumIEEE(hdr.Bytes()))
	bw := bufio.NewWriter(&out)
	if err := writeSections(bw, append(structure, []byte{width}, vi, unique)...); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// FuzzReadVI feeds the csr-vi and csr-du-vi readers arbitrary
// width/val_ind/unique section triples on fixed structures. Whatever
// Read accepts must pass Verify, hold the values the triple codes for
// (unique[k] under width 0, unique[val_ind[k]] otherwise), and multiply
// — scalar and panel kernels, whole and chunk by chunk — bitwise like
// testmat.Reference of a CSR with those values. A well-formed triple
// must be accepted.
func FuzzReadVI(f *testing.F) {
	shapes := viShapes()
	// One plain-codec and one dictionary file of each format, the
	// dictionary at every width, from the encoders' own streams.
	distinct, repeated := shapes[0], shapes[1]
	for _, duvi := range []bool{false, true} {
		f.Add(duvi, uint8(0), uint8(0), []byte{}, floatBytes(distinct.V))
		m, err := csrvi.FromCOO(repeated.Clone())
		if err != nil {
			f.Fatal(err)
		}
		ids := make([]uint32, m.NNZ())
		for k := range ids {
			ids[k] = uint32(m.VI8[k])
		}
		for _, w := range []int{1, 2, 4} {
			vi8, vi16, vi32 := csrvi.Narrow(ids, w)
			f.Add(duvi, uint8(1), uint8(w), viBytes(vi8, vi16, vi32), floatBytes(m.Unique))
		}
	}
	f.Fuzz(func(t *testing.T, duvi bool, shape, width uint8, vi, unique []byte) {
		c := shapes[int(shape)%len(shapes)]
		nnz := c.Len()
		g, err := Read(bytes.NewReader(viFile(c, duvi, width, vi, unique)))
		values := bytesFloat(unique)
		want, ok := codedValues(int(width), vi, values, nnz)
		if err != nil {
			if ok && len(unique)%8 == 0 {
				t.Fatalf("width %d: Read rejects a well-formed triple: %v", width, err)
			}
			return
		}
		if verr := core.Verify(g); verr != nil {
			t.Fatalf("Read accepted but Verify rejects: %v", verr)
		}
		if !ok {
			t.Fatalf("Read accepted a width-%d triple of %d val_ind bytes and %d values for %d non-zeros",
				width, len(vi), len(values), nnz)
		}
		ref := c.Clone()
		copy(ref.V, want)
		refCSR, err := csr.FromCOO(ref)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		g.(testmat.RowMajor).ForEach(func(i, j int, v float64) {
			if int(c.I[k]) != i || int(c.J[k]) != j || math.Float64bits(v) != math.Float64bits(want[k]) {
				t.Fatalf("non-zero %d: (%d,%d)=%v, want (%d,%d)=%v", k, i, j, v, c.I[k], c.J[k], want[k])
			}
			k++
		})
		if k != nnz {
			t.Fatalf("loaded %d non-zeros, want %d", k, nnz)
		}
		testmat.CheckBitwise(t, g.(testmat.BatchSplitter), 4, testmat.Reference(refCSR), 1, 3, 4, 8)
	})
}

// codedValues returns the nnz values a width/val_ind/unique triple codes
// for, and false if the triple is malformed: a width other than 0, 1, 2
// or 4, a val_ind not width bytes a non-zero, an index past unique, or
// a plain codec not holding nnz values.
func codedValues(width int, vi []byte, unique []float64, nnz int) ([]float64, bool) {
	if width == 0 {
		return unique, len(vi) == 0 && len(unique) == nnz
	}
	if (width != 1 && width != 2 && width != 4) || len(vi) != width*nnz {
		return nil, false
	}
	out := make([]float64, nnz)
	for k := range out {
		var id uint64
		for b := width - 1; b >= 0; b-- {
			id = id<<8 | uint64(vi[k*width+b])
		}
		if id >= uint64(len(unique)) {
			return nil, false
		}
		out[k] = unique[id]
	}
	return out, true
}
