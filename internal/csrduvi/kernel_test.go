package csrduvi_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// The combined format reads the same ctl stream and multiplies the same
// values as CSR-DU, in the same order: its results must equal the
// left-to-right accumulation of CSR-DU's ForEach stream (which pins
// CSR-DU's own kernels) bit for bit, whole and on every chunk, for
// every val_ind width.

func TestKernelsBitwiseMatchCSRDU(t *testing.T) {
	cases := testmat.Corpus()
	// More than 2^16 distinct values: the 4-byte val_ind kernel.
	cases = append(cases, testmat.Case{Name: "random-vi32",
		COO: matgen.RandomUniform(rand.New(rand.NewSource(5)), 300, 400, 230, matgen.Values{})})
	for _, opts := range []csrdu.Options{{}, {RLE: true, RLEMin: 3, MinSwitch: 2}} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%+v", tc.Name, opts), func(t *testing.T) {
				m, err := csrdu.FromCOOVI(tc.COO, opts)
				if err != nil {
					t.Fatal(err)
				}
				du, err := csrdu.FromCOOOpts(tc.COO, opts)
				if err != nil {
					t.Fatal(err)
				}
				testmat.CheckBitwise(t, m, 9, testmat.Reference(du), 1, 3, 4, 8)
			})
		}
	}
}

func TestKernelsBitwiseOnHandBuiltStreams(t *testing.T) {
	unique := make([]float64, 97)
	for i := range unique {
		unique[i] = 0.25 + float64(i)/7
	}
	for _, s := range testmat.DUStreams() {
		for _, width := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/vi%d", s.Name, 8*width), func(t *testing.T) {
				vi := make([]byte, s.NNZ*width)
				values := make([]float64, s.NNZ)
				for k := range values {
					ix := k % len(unique)
					values[k] = unique[ix]
					switch width {
					case 1:
						vi[k] = byte(ix)
					case 2:
						binary.LittleEndian.PutUint16(vi[2*k:], uint16(ix))
					default:
						binary.LittleEndian.PutUint32(vi[4*k:], uint32(ix))
					}
				}
				m, err := csrdu.FromRawVI(s.Ctl, width, vi, unique, s.Rows, s.Cols)
				if err != nil {
					t.Fatalf("hand-built stream rejected: %v", err)
				}
				du, err := csrdu.FromRaw(s.Ctl, values, s.Rows, s.Cols, false)
				if err != nil {
					t.Fatal(err)
				}
				testmat.CheckBitwise(t, m, 9, testmat.Reference(du), s.Widths...)
			})
		}
	}
}
