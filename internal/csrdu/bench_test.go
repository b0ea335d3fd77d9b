package csrdu

import (
	"fmt"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrvi"
)

// unitShape describes a matrix whose every row encodes to exactly one
// unit of perRow non-zeros in delta class cls: row i holds columns
// base(i) + k*stride, k = 0..perRow-1. The base walks across the free
// column span so ujmp varints of every length occur, as in a stencil.
// A shape with tailN > 0 has a second unit per row, of class tailCls:
// tailN more columns tailStride apart after the first unit's last.
type unitShape struct {
	name                 string
	rows, perRow, stride int
	span                 int // bases are taken mod span
	cls                  int
	tailN, tailStride    int
	tailCls              int
}

// The shapes the repo's benchmark matrices reduce to, each with a CSR
// working set (~150 MB) past the last-level cache slice a worker sees:
// Stencil3D(128) is 7-nnz u16 units, whose run its first boundary plane
// breaks with u8 rows; the mixed shape, a u8 unit then a u16 unit in
// every row, makes the scalar kernel leave one class loop for another
// twice a row, the worst case of such breaks. The served RandomUniform
// matrix is 255-nnz u8 units over a cache-resident x, SkewedRows 8-nnz
// u32 units. Regular columns keep the x-gather prefetchable, so ns/nnz
// here is matrix stream plus decode and nothing else.
var unitShapes = []unitShape{
	{name: "u16x7", rows: 1_800_000, perRow: 7, stride: 300, span: 1_800_000, cls: ClassU16},
	{name: "u8x5+u16x2", rows: 1_800_000, perRow: 5, stride: 1, span: 1_800_000, cls: ClassU8,
		tailN: 2, tailStride: 300, tailCls: ClassU16},
	{name: "u8x255", rows: 50_000, perRow: 255, stride: 8, span: 4096, cls: ClassU8},
	{name: "u32x8", rows: 1_500_000, perRow: 8, stride: 70_001, span: 1_000_000, cls: ClassU32},
}

func (s unitShape) coo() *core.COO {
	last := (s.perRow - 1) * s.stride
	c := core.NewCOO(s.rows, s.span+last+s.tailN*s.tailStride)
	for i := 0; i < s.rows; i++ {
		base := i * 7 % s.span
		for k := 0; k < s.perRow; k++ {
			c.Add(i, base+k*s.stride, 1+float64((i+k)%5))
		}
		for k := 1; k <= s.tailN; k++ {
			c.Add(i, base+last+k*s.tailStride, 1+float64((i+k)%3))
		}
	}
	c.Finalize()
	return c
}

// units returns the unit statistics the shape must encode to.
func (s unitShape) units() (units int, perClass [4]int) {
	units, perClass[s.cls] = s.rows, s.rows
	if s.tailN > 0 {
		units += s.rows
		perClass[s.tailCls] += s.rows
	}
	return units, perClass
}

// BenchmarkUnitShapes reports serial ns/nnz of the CSR-DU kernel beside
// CSR and CSR-VI on the unit shapes. It is the per-shape view of the
// decode cost: the 255-nnz shape sits at the FP-add latency floor, the
// short shapes show what a unit header or a row costs, and the mixed
// shape what leaving one class loop for another costs. Run with
// -benchtime=1x in verify.sh so it cannot rot; use -benchtime=10x
// -count=5 to measure.
func BenchmarkUnitShapes(b *testing.B) {
	for _, s := range unitShapes {
		c := s.coo()
		du, err := FromCOO(c)
		if err != nil {
			b.Fatal(err)
		}
		st := du.Stats()
		if units, perClass := s.units(); st.Units != units || st.PerClass != perClass {
			b.Fatalf("%s: want %d units, %v per class, got %+v", s.name, units, perClass, st)
		}
		ref, err := csr.FromCOO(c)
		if err != nil {
			b.Fatal(err)
		}
		vi, err := csrvi.FromCOO(c)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, c.Cols())
		for i := range x {
			x[i] = 1 + float64(i%3)
		}
		y := make([]float64, c.Rows())
		for _, f := range []core.Format{ref, vi, du} {
			b.Run(fmt.Sprintf("%s/%s", s.name, f.Name()), func(b *testing.B) {
				f.SpMV(y, x) // page in both streams
				b.SetBytes(f.SizeBytes())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.SpMV(y, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.NNZ()), "ns/nnz")
			})
		}
	}
}
