package matfile

import (
	"bytes"
	"sort"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/dcsr"
	"spmv/internal/testmat"
)

// A csr-vi file whose u8 dictionary does not pay — every value
// distinct, as writers made them before the encoder kept such values
// plain — loads with the dictionary it stores and writes back the same
// bytes. Rebuilding the matrix from triplets would re-encode it to the
// plain codec.
func TestLoadKeepsStoredDictionary(t *testing.T) {
	c := viShapes()[0] // distinct values
	nnz := c.Len()
	if nnz > 256 || csrvi.Pays(nnz, nnz) {
		t.Fatalf("fixture: %d distinct values must fit u8 ids and not pay", nnz)
	}
	ids := make([]byte, nnz)
	for k := range ids {
		ids[k] = byte(k)
	}
	b := viFile(c, false, 1, ids, floatBytes(c.V))
	g, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.(interface{ IndexWidth() int }).IndexWidth(); w != 1 {
		t.Errorf("loaded val_ind width %d, want the stored 1", w)
	}
	var out bytes.Buffer
	if err := Write(&out, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), b) {
		t.Errorf("Write(Read(b)) is %d bytes unlike the %d read", out.Len(), len(b))
	}
}

// splitFormat is a row-partitioned format without a panel kernel
// (dcsr).
type splitFormat interface {
	core.Format
	core.Splitter
}

// batchFallback drives a splitFormat through CheckBitwise: a panel runs
// the row walk once per column, on the whole matrix and on each chunk.
type batchFallback struct{ splitFormat }

func (m batchFallback) SpMVBatch(y, x []float64, k int) { core.BatchFallback(m.splitFormat, y, x, k) }

func (m batchFallback) Split(n int) []core.Chunk {
	var out []core.Chunk
	for _, ch := range m.splitFormat.Split(n) {
		out = append(out, chunkFallback{ch, m.Cols()})
	}
	return out
}

type chunkFallback struct {
	core.Chunk
	cols int
}

func (c chunkFallback) SpMVBatch(y, x []float64, k int) {
	lo, hi := c.RowRange()
	xc, yc := make([]float64, c.cols), make([]float64, hi)
	for col := 0; col < k; col++ {
		for j := range xc {
			xc[j] = x[j*k+col]
		}
		c.SpMV(yc, xc)
		for i := lo; i < hi; i++ {
			y[i*k+col] = yc[i]
		}
	}
}

// canonicalSeed is one v2 file's tag, the shape its header describes
// and its sections.
type canonicalSeed struct {
	name     string
	c        *core.COO
	sections [][]byte
}

// canonicalSeeds returns one v2 file of each tag and value codec the
// writer emits: csr, csr-du, csr-du-rle and dcsr; csr-vi and
// csr-du-vi plain and at val_ind widths 1, 2 and 4.
func canonicalSeeds(t testing.TB) map[string]canonicalSeed {
	shapes := viShapes()
	distinct, repeated := shapes[0], shapes[1]
	m, err := csr.FromCOO(distinct.Clone())
	if err != nil {
		t.Fatal(err)
	}
	du, err := csrdu.FromCOO(distinct.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Stencil2D(4)'s rows repeat one column right: RLE units.
	rle, err := csrdu.FromCOOOpts(repeated.Clone(), csrdu.Options{RLE: true, RLEMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := dcsr.FromCOO(distinct.Clone())
	if err != nil {
		t.Fatal(err)
	}
	vi, err := csr.FromCOOVI(repeated.Clone())
	if err != nil {
		t.Fatal(err)
	}
	duvi, err := csrdu.FromCOOVI(repeated.Clone(), csrdu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, vi.NNZ())
	for k := range ids {
		ids[k] = uint32(vi.VI8[k])
	}
	seeds := map[string]canonicalSeed{
		"csr":         {"csr", distinct, [][]byte{int32Bytes(m.RowPtr), int32Bytes(m.ColInd), floatBytes(m.Values)}},
		"csr-du":      {"csr-du", distinct, [][]byte{du.Ctl, floatBytes(du.Values)}},
		"csr-du-rle":  {"csr-du-rle", repeated, [][]byte{rle.Ctl, floatBytes(rle.Values)}},
		"dcsr":        {"dcsr", distinct, [][]byte{dc.Cmds, floatBytes(dc.Values)}},
		"csr-vi/0":    {"csr-vi", distinct, [][]byte{int32Bytes(m.RowPtr), int32Bytes(m.ColInd), {0}, {}, floatBytes(m.Values)}},
		"csr-du-vi/0": {"csr-du-vi", distinct, [][]byte{du.Ctl, {0}, {}, floatBytes(du.Values)}},
	}
	for _, w := range []int{1, 2, 4} {
		vi8, vi16, vi32 := csrvi.Narrow(ids, w)
		tail := [][]byte{{byte(w)}, viBytes(vi8, vi16, vi32), floatBytes(vi.Unique)}
		key := "/" + string(rune('0'+w))
		seeds["csr-vi"+key] = canonicalSeed{"csr-vi", repeated,
			append([][]byte{int32Bytes(vi.RowPtr), int32Bytes(vi.ColInd)}, tail...)}
		seeds["csr-du-vi"+key] = canonicalSeed{"csr-du-vi", repeated, append([][]byte{duvi.Ctl}, tail...)}
	}
	return seeds
}

// FuzzCanonical holds the readers of every tag the writer emits (csr,
// csr-vi, csr-du, csr-du-rle, csr-du-vi, dcsr) to two promises
// about every version-2 file Read accepts: the loaded matrix writes
// back byte for byte, and it multiplies — scalar and panel, whole and
// chunk by chunk — bitwise like testmat.Reference over the non-zeros
// in the order the file stores them. A seed file of each tag and codec
// with one stray byte appended to one section must be refused.
// ReadSized must agree with Read on every input (readBoth).
func FuzzCanonical(f *testing.F) {
	seeds := canonicalSeeds(f)
	keys := make([]string, 0, len(seeds))
	for key := range seeds {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sd := seeds[key]
		rows, cols, nnz := sd.c.Rows(), sd.c.Cols(), sd.c.Len()
		f.Add(containerFile(sd.name, rows, cols, nnz, sd.sections...))
		for i := range sd.sections {
			stray := append([][]byte(nil), sd.sections...)
			stray[i] = append(append([]byte(nil), stray[i]...), 0)
			b := containerFile(sd.name, rows, cols, nnz, stray...)
			if _, err := Read(bytes.NewReader(b)); err == nil {
				f.Fatalf("%s: a stray byte in section %d was accepted", key, i)
			}
			f.Add(b)
		}
	}
	m, err := csr.FromCOO(viShapes()[0].Clone())
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range sizedSeeds(m) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || data[4] != 2 {
			return
		}
		g, err := readBoth(t, data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, g); err != nil {
			t.Fatalf("Write of a loaded %s: %v", g.Name(), err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s: Write(Read(b)) differs from b", g.Name())
		}
		switch m := g.(type) {
		case *csr.Matrix:
			testmat.CheckBitwise(t, m, 4, testmat.Reference(m), 1, 3, 4, 8)
		case *csrdu.Matrix:
			testmat.CheckBitwise(t, m, 4, testmat.Reference(m), 1, 3, 4, 8)
		case *dcsr.Matrix:
			testmat.CheckBitwise(t, batchFallback{m}, 4, testmat.Reference(m), 1, 3, 4, 8)
		default:
			t.Fatalf("Read returned an unexpected %T (%s)", g, g.Name())
		}
	})
}
