package csr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/testmat"
)

// traceDigest places m in a fresh arena, traces Split(3)'s chunks in
// order and returns the SHA-256 of the emitted accesses (address, size,
// write flag, compute cycles).
func traceDigest(m *Matrix) string {
	a := core.NewArena()
	m.Place(a)
	xBase := a.Alloc(int64(m.Cols()) * 8)
	yBase := a.Alloc(int64(m.Rows()) * 8)
	h := sha256.New()
	var buf [15]byte
	for _, ch := range m.Split(3) {
		ch.(core.Tracer).TraceSpMV(xBase, yBase, func(acc core.Access) {
			binary.LittleEndian.PutUint64(buf[0:], acc.Addr)
			binary.LittleEndian.PutUint32(buf[8:], acc.Size)
			buf[12] = 0
			if acc.Write {
				buf[12] = 1
			}
			binary.LittleEndian.PutUint16(buf[13:], acc.Comp)
			h.Write(buf[:])
		})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// recode rewrites a csr-vi matrix's value codec: the plain codec for
// width 0, otherwise a first-appearance dictionary indexed at width
// bytes, whether or not it pays.
func recode(m *Matrix, width int) {
	vals := make([]float64, m.NNZ())
	for k := range vals {
		vals[k] = m.value(k)
	}
	m.Unique, m.VI8, m.VI16, m.VI32 = vals, nil, nil, nil
	if width == 0 {
		return
	}
	ids := make([]uint32, len(vals))
	seen := map[uint64]uint32{}
	var unique []float64
	for k, v := range vals {
		id, ok := seen[math.Float64bits(v)]
		if !ok {
			id = uint32(len(unique))
			seen[math.Float64bits(v)] = id
			unique = append(unique, v)
		}
		ids[k] = id
	}
	m.Unique = unique
	m.VI8, m.VI16, m.VI32 = csrvi.Narrow(ids, width)
}

// The memory-simulator tables are computed from these traces: every
// value codec keeps the access stream, addresses and compute cycles it
// had as a type of its own (CSR 3 cycles a non-zero, csr32 one more for
// the convert, the dictionary one more for the indirection, 2 a row).
func TestTraceDigestsUnchanged(t *testing.T) {
	want := map[string]string{
		"banded-unique8 csr":      "786e1a336b5512f43087690c58ae9ee083a1e4d30649aa7151d874409117a48e",
		"banded-unique8 csr32":    "ffb60ac4941f28484bfb1ea4db05a25486acfa29257147e5bd095f4b08c05a4c",
		"banded-unique8 csr-vi/0": "eb910c596e04e67f091fe32293663ea3478dd9f26cf6ac97fbbb0ae826297d50",
		"banded-unique8 csr-vi/1": "3a30d6082d844fbcb2062a8949b4c570c5d8436f9d1e32393ee1a9bf845ee82c",
		"banded-unique8 csr-vi/2": "91c02ce0e5304eefba9f4f6b61c8206dc7bf98e815358add19eff894bdfcd5c2",
		"banded-unique8 csr-vi/4": "0c39fe7d017de1175b4b8d821f950f28e1847b1a9c83869ed936ae5823ca9ae5",
		"femlike csr":             "f1462504bf027fdb746ad21fb5a0cb036c73143bd80fe5eb541d90f9b147543d",
		"femlike csr32":           "823a969b3f23893e085fb1d6dad813ba7af5bb18937784f9ce3296b87d9d8137",
		"femlike csr-vi/0":        "71e9abb79ef48c2a63fe5d320ca15339c58440e609e2516e770b2a6b1cfb2771",
		"femlike csr-vi/1":        "7fa3ffdeb30f36410a5f1fed18f18f91604c8eb72f675e7081c99b9fb3e5f4df",
		"femlike csr-vi/2":        "4a35d9449e4a4df038605286f7391b2f93fe2135565696a2aa41f874883c88f5",
		"femlike csr-vi/4":        "d4e98b535b740bc3c97d7b8a6154c04da2502e0e003d881b18f57b29a1e80ec3",
	}
	got := map[string]string{}
	for _, tc := range testmat.Corpus() {
		if tc.Name != "banded-unique8" && tc.Name != "femlike" {
			continue
		}
		m, _ := FromCOO(tc.COO.Clone())
		got[tc.Name+" csr"] = traceDigest(m)
		m, _ = From32(tc.COO.Clone())
		got[tc.Name+" csr32"] = traceDigest(m)
		for _, w := range []int{0, 1, 2, 4} {
			m, _ = FromCOOVI(tc.COO.Clone())
			recode(m, w)
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s csr-vi/%d", tc.Name, w)] = traceDigest(m)
		}
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: trace digest %s, want %s", k, got[k], w)
		}
	}
}
