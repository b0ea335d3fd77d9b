package matfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
)

// allocBombFile builds a syntactically valid v2 header claiming a huge
// nnz (which inflates the per-section cap to many gigabytes) followed
// by a section length header demanding sectionLen bytes that the file
// does not contain. Before the sized-read guard, loading this would
// attempt a multi-gigabyte allocation from a few dozen input bytes.
func allocBombFile(sectionLen int64) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	var hdr bytes.Buffer
	name := "csr"
	hdr.WriteByte(byte(len(name)))
	hdr.WriteString(name)
	for _, v := range []int64{1000, 1000, math.MaxInt32} {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		hdr.Write(tmp[:])
	}
	buf.Write(hdr.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(hdr.Bytes()))
	buf.Write(crc[:])
	var slen [8]byte
	binary.LittleEndian.PutUint64(slen[:], uint64(sectionLen))
	buf.Write(slen[:])
	// A token amount of body — nowhere near sectionLen.
	buf.Write(make([]byte, 64))
	return buf.Bytes()
}

// TestReadSizedRejectsAllocBomb is the corrupt-header regression test:
// a section length exceeding the input's remaining bytes must fail
// with core.ErrCorrupt before any allocation is attempted.
func TestReadSizedRejectsAllocBomb(t *testing.T) {
	// 8 GiB claimed, inside the nnz-derived cap but far beyond the file.
	data := allocBombFile(8 << 30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSized(bytes.NewReader(data), int64(len(data)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("ReadSized(alloc bomb): got %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ReadSized(alloc bomb) allocated %d bytes", got)
	}
}

// TestReadUnsizedAllocBombTruncates checks the unsized path's defense:
// allocation grows only as bytes actually arrive, so the same bomb
// fails with a truncation error after consuming the real input, not
// with an 8 GiB up-front allocation.
func TestReadUnsizedAllocBombTruncates(t *testing.T) {
	data := allocBombFile(8 << 30)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("Read(alloc bomb): got %v, want ErrTruncated", err)
	}
}

// TestReadSizedNegativeTotal checks the argument guard.
func TestReadSizedNegativeTotal(t *testing.T) {
	if _, err := ReadSized(bytes.NewReader(nil), -1); !errors.Is(err, core.ErrShape) {
		t.Fatalf("ReadSized(-1): got %v, want ErrShape", err)
	}
}

// TestReadSizedRoundTrip checks the sized path loads a valid file
// identically to Read.
func TestReadSizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := matgen.FEMLike(rng, 80, 4, matgen.Values{})
	m, err := csr.FromCOO(c)
	if err != nil {
		t.Fatalf("csr: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := ReadSized(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("ReadSized: %v", err)
	}
	checkEqual(t, m, back, c.Cols())
}

// TestReadSizedLyingShortTotal checks that a total smaller than the
// real file still rejects sections honestly (remaining goes negative).
func TestReadSizedLyingShortTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := matgen.FEMLike(rng, 80, 4, matgen.Values{})
	m, err := csr.FromCOO(c)
	if err != nil {
		t.Fatalf("csr: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := ReadSized(bytes.NewReader(buf.Bytes()), 40); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("ReadSized(short total): got %v, want ErrCorrupt", err)
	}
}

// errClass names the error sentinel err wraps.
func errClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{{"corrupt", core.ErrCorrupt}, {"truncated", core.ErrTruncated}, {"shape", core.ErrShape}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// readBoth reads data with Read and with ReadSized(data, len(data))
// and fails t unless the two give the same verdict and, on a refusal,
// the same error class; it returns Read's result. One difference is by
// design: a section that runs past the end of the input is corrupt to
// ReadSized, which knows the size before it reads, and truncated to
// Read, which runs out. Two matrices that both load must write the
// same bytes.
func readBoth(t *testing.T, data []byte) (core.Format, error) {
	t.Helper()
	g, err := Read(bytes.NewReader(data))
	gs, serr := ReadSized(bytes.NewReader(data), int64(len(data)))
	switch {
	case (err == nil) != (serr == nil):
		t.Fatalf("Read: %v; ReadSized: %v", err, serr)
	case err != nil:
		pastInput := errClass(err) == "truncated" && errClass(serr) == "corrupt" &&
			strings.Contains(serr.Error(), "exceeds remaining input")
		if errClass(err) != errClass(serr) && !pastInput {
			t.Fatalf("Read refuses as %s (%v), ReadSized as %s (%v)", errClass(err), err, errClass(serr), serr)
		}
		return nil, err
	}
	var a, b bytes.Buffer
	if err := Write(&a, g); err != nil {
		t.Fatalf("Write of Read's %s: %v", g.Name(), err)
	}
	if err := Write(&b, gs); err != nil {
		t.Fatalf("Write of ReadSized's %s: %v", gs.Name(), err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: Read and ReadSized load matrices that write differently", g.Name())
	}
	return g, nil
}

// sizedSeeds are three refusals derived from a csr container: its
// values CRC flipped, its values section's length one byte past the
// input, and a values section of 8k+1 bytes under a valid CRC.
func sizedSeeds(m *csr.Matrix) [][]byte {
	valid := containerFile("csr", m.Rows(), m.Cols(), m.NNZ(),
		int32Bytes(m.RowPtr), int32Bytes(m.ColInd), floatBytes(m.Values))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	long := bytes.Clone(valid)
	at := len(long) - 4 - 8*m.NNZ() - 8 // the values section's length
	binary.LittleEndian.PutUint64(long[at:], uint64(8*m.NNZ()+1))
	ragged := containerFile("csr", m.Rows(), m.Cols(), m.NNZ(),
		int32Bytes(m.RowPtr), int32Bytes(m.ColInd), append(floatBytes(m.Values), 0))
	return [][]byte{flipped, long, ragged}
}

// TestSizedSeedsRefused: each seed is refused by both readers, in the
// classes readBoth allows.
func TestSizedSeedsRefused(t *testing.T) {
	m, err := csr.FromCOO(matgen.Stencil2D(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range sizedSeeds(m) {
		if _, err := readBoth(t, b); err == nil {
			t.Errorf("seed %d loaded", i)
		}
	}
}
