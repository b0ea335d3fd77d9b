package testmat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/varint"
)

// The row kernels of CSR, CSR-VI and the CSR-DU family promise two
// things the tolerance checks of CheckFormat cannot see: every row's
// sum is accumulated left to right in stream order (so results are
// bitwise reproducible across kernels, panel widths and partitions),
// and a chunk writes exactly the rows [lo, hi) — all of them, since
// nothing pre-zeroes y, and no others, since chunks run concurrently.
// CheckBitwise pins both.

// sentinel is a NaN no kernel can produce from finite inputs.
var sentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

// BatchSplitter is a format with a fused panel kernel and a row
// partition whose chunks have one too.
type BatchSplitter interface {
	core.BatchFormat
	core.Splitter
}

// CheckBitwise compares f's SpMV and SpMVBatch (each panel width in
// ks), run whole and chunk by chunk for every Split(1..maxSplit),
// bitwise against ref(x, k) — the row-major panel A*X in the summation
// order f promises — and checks that each chunk left the rows outside
// its range untouched.
func CheckBitwise(t *testing.T, f BatchSplitter, maxSplit int, ref func(x []float64, k int) []float64, ks ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(f.NNZ())))
	for _, k := range ks {
		x := RandVec(rng, f.Cols()*k)
		want := ref(x, k)
		check := func(what string, lo, hi int, mul func(y []float64)) {
			t.Helper()
			y := make([]float64, f.Rows()*k)
			for i := range y {
				y[i] = sentinel
			}
			mul(y)
			for i := range y {
				exp := sentinel
				if row := i / k; row >= lo && row < hi {
					exp = want[i]
				}
				if math.Float64bits(y[i]) != math.Float64bits(exp) {
					t.Fatalf("%s k=%d rows [%d,%d): y[row %d, col %d] = %v (%#x), want %v (%#x)",
						what, k, lo, hi, i/k, i%k, y[i], math.Float64bits(y[i]), exp, math.Float64bits(exp))
				}
			}
		}
		if k == 1 {
			check("SpMV", 0, f.Rows(), func(y []float64) { f.SpMV(y, x) })
		}
		check("SpMVBatch", 0, f.Rows(), func(y []float64) { f.SpMVBatch(y, x, k) })
		for n := 1; n <= maxSplit; n++ {
			for ci, ch := range f.Split(n) {
				lo, hi := ch.RowRange()
				what := fmt.Sprintf("Split(%d) chunk %d", n, ci)
				if k == 1 {
					check(what+" SpMV", lo, hi, func(y []float64) { ch.SpMV(y, x) })
				}
				check(what+" SpMVBatch", lo, hi, func(y []float64) { ch.(core.BatchChunk).SpMVBatch(y, x, k) })
			}
		}
	}
}

// RowMajor is a matrix that lists its non-zeros row by row, each row in
// stored order.
type RowMajor interface {
	Rows() int
	ForEach(fn func(i, j int, v float64))
}

// Reference returns the CheckBitwise reference for m: it multiplies by
// accumulating ForEach's (i, j, v) stream left to right into a zeroed
// panel, the summation order the row kernels keep.
func Reference(m RowMajor) func(x []float64, k int) []float64 {
	return func(x []float64, k int) []float64 {
		want := make([]float64, m.Rows()*k)
		m.ForEach(func(i, j int, v float64) {
			for c := 0; c < k; c++ {
				want[i*k+c] += v * x[j*k+c]
			}
		})
		return want
	}
}

// DUUnit is one hand-encoded CSR-DU unit: its row, delta class (log2 of
// the delta width), whether it is an RLE unit, the absolute columns it
// covers, and how many bytes its ujmp varint is padded to (0: canonical
// length).
type DUUnit struct {
	Row     int
	Class   byte
	RLE     bool
	JumpLen int
	Cols    []int
}

// DUStream is a hand-built CSR-DU ctl stream with the shape of the
// matrix it encodes and the panel widths worth running on it.
type DUStream struct {
	Name       string
	Ctl        []byte
	NNZ        int
	Rows, Cols int
	Widths     []int
}

// The uflags bits of the CSR-DU ctl grammar, restated here so that the
// hand-built streams check the decoders against the format and not
// against the encoder's constants.
const (
	duFlagRJMP = 0x20
	duFlagNR   = 0x40
	duFlagRLE  = 0x80
)

// padVarint encodes v in exactly n bytes (n at least the canonical
// length) using redundant continuation groups, which the decoders
// accept.
func padVarint(v uint64, n int) []byte {
	b := varint.Append(nil, v)
	for len(b) < n {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// encodeDU encodes units given in row order; later units of a row
// continue it.
func encodeDU(units []DUUnit) (ctl []byte, nnz int) {
	prevRow, prevCol := -1, 0
	for _, u := range units {
		flags := u.Class
		if u.RLE {
			flags = duFlagRLE
		}
		if u.Row != prevRow {
			flags |= duFlagNR
			if u.Row-prevRow > 1 {
				flags |= duFlagRJMP
			}
			prevCol = 0
		}
		ctl = append(ctl, flags, byte(len(u.Cols)))
		if flags&duFlagRJMP != 0 {
			ctl = varint.Append(ctl, uint64(u.Row-prevRow))
		}
		ctl = append(ctl, padVarint(uint64(u.Cols[0]-prevCol), u.JumpLen)...)
		if u.RLE {
			delta := 0 // a one-element RLE unit still stores a delta
			if len(u.Cols) > 1 {
				delta = u.Cols[1] - u.Cols[0]
			}
			ctl = varint.Append(ctl, uint64(delta))
		} else {
			for p := 1; p < len(u.Cols); p++ {
				d := uint64(u.Cols[p] - u.Cols[p-1])
				for b := 0; b < 1<<u.Class; b++ {
					ctl = append(ctl, byte(d>>(8*b)))
				}
			}
		}
		nnz += len(u.Cols)
		prevRow, prevCol = u.Row, u.Cols[len(u.Cols)-1]
	}
	return ctl, nnz
}

// colsFrom returns n columns starting at start, step apart.
func colsFrom(start, step, n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = start + i*step
	}
	return cols
}

// DUStreams returns ctl streams built by hand to reach what encoded
// corpus matrices rarely do. Every stream passes the format's Verify.
func DUStreams() []DUStream {
	const cols = 70000
	var out []DUStream
	add := func(name string, rows, cols int, widths []int, units []DUUnit) {
		ctl, nnz := encodeDU(units)
		out = append(out, DUStream{Name: name, Ctl: ctl, NNZ: nnz, Rows: rows, Cols: cols, Widths: widths})
	}

	// Every class at unit sizes that hit each loop's entry, body and
	// tail (0, 1, 2, 4, 5, 8, 9 and the maximal 254 deltas), RLE units
	// of 1, 6 and 255 elements, ujmp varints of 1/2/3 canonical and 4/6
	// padded bytes, one- and two-byte row jumps, rows built from several
	// units, and leading, interior and trailing empty rows.
	var units []DUUnit
	row := 3 // rows 0-2 stay empty
	for cls := byte(0); cls <= 3; cls++ {
		step := []int{3, 260, 3, 3}[cls] // the u32/u64 classes carry small deltas
		for _, n := range []int{1, 2, 3, 5, 6, 9, 10, 255} {
			units = append(units, DUUnit{Row: row, Class: cls, Cols: colsFrom(int(cls)*7, step, n)})
			row++
		}
		row += 2 // a two-row gap: RJMP
	}
	for i, jl := range []int{1, 2, 3, 4, 6} {
		start := []int{5, 200, 20000, 9, 11}[i]
		units = append(units, DUUnit{Row: row, Class: 1, JumpLen: jl, Cols: colsFrom(start, 260, 7)})
		row++
	}
	row += 200 // a two-byte rjmp varint
	units = append(units,
		DUUnit{Row: row, RLE: true, Cols: colsFrom(4, 9, 255)},
		DUUnit{Row: row, RLE: true, Cols: colsFrom(4+255*9, 2, 6)},
		DUUnit{Row: row, Class: 0, Cols: colsFrom(5000, 1, 255)},
		DUUnit{Row: row, Class: 1, JumpLen: 4, Cols: colsFrom(6000, 256, 3)},
		DUUnit{Row: row, Class: 2, Cols: []int{69999}},
	)
	row++
	units = append(units,
		DUUnit{Row: row, RLE: true, Cols: []int{7}}, // one element: delta stored, unused
		DUUnit{Row: row, Class: 0, Cols: colsFrom(9, 2, 3)},
	)
	row++
	units = append(units, DUUnit{Row: row, Class: 0, Cols: []int{0}})
	add("mixed", row+1+4 /* four trailing empty rows */, cols, []int{1, 3, 4, 8}, units)

	// ujmp varints whose fourth byte and beyond carry payload need a
	// column past 2^21; the panels stay narrow to keep x small.
	add("wide-jumps", 3, 1<<21+300, []int{1, 3}, []DUUnit{
		{Row: 0, Class: 0, Cols: colsFrom(1<<21+5, 3, 9)},
		{Row: 1, Class: 1, JumpLen: 6, Cols: colsFrom(1<<21+50, 1, 4)},
		{Row: 2, RLE: true, JumpLen: 5, Cols: colsFrom(1<<21, 2, 8)},
	})

	// The scalar kernel hands each run of same-class units to one loop
	// and leaves it at the first header of another kind, carrying the
	// row's column position and partial sum across the exit. For every
	// ordered pair of unit kinds: a row of two units of the first, two
	// of the second and two of the first again (class changes without
	// NR, out and back), then a new row of the first kind (a run that
	// crosses a row), and after a row jump another row of the same
	// kind (a run that ends at the jump). Unit sizes 3 and 6 reach
	// every delta block of each class.
	kinds := []DUUnit{{Class: 0}, {Class: 1}, {Class: 2}, {Class: 3}, {RLE: true}}
	var pairs []DUUnit
	row, col := 0, 0
	unit := func(k DUUnit, n int) {
		step := []int{3, 300, 3, 5}[k.Class]
		k.Row, k.Cols = row, colsFrom(col+1, step, n)
		pairs = append(pairs, k)
		col = k.Cols[n-1]
	}
	for ai, a := range kinds {
		for bi, b := range kinds {
			if ai == bi {
				continue
			}
			for i, k := range []DUUnit{a, a, b, b, a, a} {
				unit(k, []int{3, 6}[i%2])
			}
			row, col = row+1, 0
			unit(a, 6)
			row, col = row+3, 0
			unit(a, 3)
			row, col = row+1, 0
		}
	}
	add("class-pairs", row, cols, []int{1, 4}, pairs)

	// Rows whose last unit changes class, so that wherever a Split puts
	// a chunk boundary, the unit before it left the previous run: u16
	// rows ending in a u8 unit, u8 rows ending in a u32 unit, u32 rows
	// ending in a u16 unit.
	var edges []DUUnit
	for r := 0; r < 24; r++ {
		a, b := []byte{1, 0, 2}[r%3], []byte{0, 2, 1}[r%3]
		edges = append(edges,
			DUUnit{Row: r, Class: a, Cols: colsFrom(r, 2, 5)},
			DUUnit{Row: r, Class: a, Cols: colsFrom(r+20, 3, 2)},
			DUUnit{Row: r, Class: b, Cols: colsFrom(r+40, 7, 4)})
	}
	add("chunk-edge-class-change", 24, cols, []int{1, 3}, edges)

	// Stencil3D(8) with a u16 unit per interior row and, on the two
	// boundary planes, a u8 unit followed by a u16 unit: the full-size
	// stencil's u16 runs broken by boundary rows of narrower deltas,
	// with a class change inside every boundary row.
	const n = 8
	st := matgen.Stencil3D(n)
	var sten []DUUnit
	for k := 0; k < st.Len(); {
		r, _, _ := st.At(k)
		var rc []int
		for ; k < st.Len(); k++ {
			i, j, _ := st.At(k)
			if i != r {
				break
			}
			rc = append(rc, j)
		}
		if plane := r / (n * n); plane == 0 || plane == n-1 {
			h := len(rc) / 2
			sten = append(sten, DUUnit{Row: r, Class: 0, Cols: rc[:h]}, DUUnit{Row: r, Class: 1, Cols: rc[h:]})
		} else {
			sten = append(sten, DUUnit{Row: r, Class: 1, Cols: rc})
		}
	}
	add("stencil3d-8-planes", n*n*n, n*n*n, []int{1, 3}, sten)

	// A u16 or u32 unit as the stream's last bytes: with d deltas, fewer
	// than 8 bytes of ctl remain for the first, a later or no wide load,
	// so each d takes a different mix of the scalar kernels' 8-byte path
	// and its fallback.
	for cls := byte(1); cls <= 2; cls++ {
		for d := 1; d <= []int{9, 5}[cls-1]; d++ {
			add(fmt.Sprintf("u%d-tail-%d", 8<<cls, d), 4, cols, []int{1, 3, 4, 8}, []DUUnit{
				{Row: 0, Class: 0, Cols: colsFrom(1, 2, 3)},
				{Row: 2, Class: cls, Cols: colsFrom(40, 270, d+1)},
			})
		}
	}
	return out
}
