// Package analyze inspects a matrix's structure through the lens of the
// paper's compression schemes — column-delta distribution (what CSR-DU
// can do), total-to-unique values ratio (what CSR-VI can do), diagonal
// and blocking structure, row-length skew — and recommends storage
// formats with predicted sizes. It is the descriptive side of format
// choice; the measured choice is internal/autotune's.
package analyze

import (
	"fmt"
	"math"
	"sort"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
)

// Analysis summarizes the format-relevant structure of a matrix.
type Analysis struct {
	Rows, Cols, NNZ int
	WS              int64   // CSR working set (§II-B)
	TTU             float64 // total-to-unique values ratio (§VI-E)
	Unique          int

	AvgRowNNZ float64
	MaxRowNNZ int
	EmptyRows int

	// DeltaFrac[c] is the fraction of within-row column deltas whose
	// narrowest width class is c (u8/u16/u32/u64). First elements of
	// rows are excluded (they are ujmp varints in CSR-DU).
	DeltaFrac [4]float64
	// UnitDeltaEq1 is the fraction of deltas equal to 1 (RLE/dense-run
	// potential).
	DeltaEq1 float64

	// RepRows counts the rows that repeat the row above them shifted
	// one column right, and RepNNZ their non-zeros: CSR-DU stores such
	// rows in REP units, with no index bytes of their own.
	RepRows int
	RepNNZ  int

	Bandwidth int
	Diagonals int // distinct non-zero diagonals

	Symmetric bool // pattern-symmetric with equal values
}

// Analyze computes the Analysis of a finalized COO in O(nnz) plus a
// hash of the values.
func Analyze(c *core.COO) Analysis {
	c.Finalize()
	a := Analysis{Rows: c.Rows(), Cols: c.Cols(), NNZ: c.Len()}
	a.WS = core.WorkingSet(c.Rows(), c.Cols(), c.Len())

	unique := make(map[uint64]struct{})
	diags := make(map[int32]struct{})
	var deltas, eq1 int64
	var classCount [4]int64

	counts := c.RowCounts()
	for _, n := range counts {
		if n == 0 {
			a.EmptyRows++
		}
		if n > a.MaxRowNNZ {
			a.MaxRowNNZ = n
		}
	}
	if c.Rows() > 0 {
		a.AvgRowNNZ = float64(c.Len()) / float64(c.Rows())
	}
	prevRow, prevCol := -1, 0
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		unique[math.Float64bits(v)] = struct{}{}
		diags[int32(j-i)] = struct{}{}
		if d := i - j; d > a.Bandwidth {
			a.Bandwidth = d
		} else if -d > a.Bandwidth {
			a.Bandwidth = -d
		}
		if i == prevRow {
			d := uint64(j - prevCol)
			deltas++
			if d == 1 {
				eq1++
			}
			switch {
			case d < 1<<8:
				classCount[0]++
			case d < 1<<16:
				classCount[1]++
			case d < 1<<32:
				classCount[2]++
			default:
				classCount[3]++
			}
		}
		prevRow, prevCol = i, j
	}
	for k, prev := 0, -1; k < c.Len(); {
		start := k
		for k < c.Len() && c.I[k] == c.I[start] {
			k++
		}
		if prev >= 0 && csrdu.RepeatsPrev(c, prev, start, c.Len()) {
			a.RepRows++
			a.RepNNZ += k - start
		}
		prev = start
	}
	a.Unique = len(unique)
	if a.NNZ > 0 {
		a.TTU = float64(a.NNZ) / float64(a.Unique)
	}
	a.Diagonals = len(diags)
	if deltas > 0 {
		for i := range classCount {
			a.DeltaFrac[i] = float64(classCount[i]) / float64(deltas)
		}
		a.DeltaEq1 = float64(eq1) / float64(deltas)
	}
	a.Symmetric = isSymmetric(c)
	return a
}

func isSymmetric(c *core.COO) bool {
	if c.Rows() != c.Cols() {
		return false
	}
	t := c.Transpose()
	if t.Len() != c.Len() {
		return false
	}
	for k := 0; k < c.Len(); k++ {
		i1, j1, v1 := c.At(k)
		i2, j2, v2 := t.At(k)
		if i1 != i2 || j1 != j2 || !core.SameBits(v1, v2) {
			return false
		}
	}
	return true
}

// Recommendation is one format suggestion with its predicted size.
type Recommendation struct {
	Format string
	// Ratio is the predicted SizeBytes relative to baseline CSR.
	Ratio  float64
	Reason string
}

// Recommend returns format suggestions ordered by predicted size
// (smallest first). Predictions use closed-form estimates from the
// analysis; they are within a few percent of the real encoders on the
// generator suite (see tests).
func (a Analysis) Recommend() []Recommendation {
	if a.NNZ == 0 {
		return []Recommendation{{Format: "csr", Ratio: 1, Reason: "empty matrix"}}
	}
	base := float64(core.CSRBytes(a.Rows, a.NNZ, core.IdxSize, core.ValSize))
	var recs []Recommendation
	add := func(format string, bytes float64, reason string) {
		recs = append(recs, Recommendation{Format: format, Ratio: bytes / base, Reason: reason})
	}

	add("csr", base, "baseline")

	// CSR-DU: ctl ≈ per-delta width + ~4 bytes/row of headers+jump,
	// none of either for the rows a REP unit repeats.
	duIdx := a.DeltaFrac[0]*1 + a.DeltaFrac[1]*2 + a.DeltaFrac[2]*4 + a.DeltaFrac[3]*8
	nonEmpty := float64(a.Rows - a.EmptyRows - a.RepRows)
	ctl := duIdx*float64(a.NNZ-a.RepNNZ) + 4*nonEmpty
	add("csr-du", ctl+8*float64(a.NNZ), fmt.Sprintf("%.0f%% of column deltas fit one byte", 100*a.DeltaFrac[0]))

	// CSR-VI: only when the paper's ttu criterion holds.
	if a.TTU > 5 {
		w := csrvi.Width(a.Unique)
		viBytes := float64(core.CSRBytes(a.Rows, a.NNZ, core.IdxSize, 0)) +
			float64(a.NNZ)*float64(w) + 8*float64(a.Unique)
		add("csr-vi", viBytes, fmt.Sprintf("ttu %.0f > 5: %d unique values need %d-byte indices", a.TTU, a.Unique, w))
		add("csr-du-vi", ctl+float64(a.NNZ)*float64(w)+8*float64(a.Unique),
			"both index and value compression apply")
	}

	// Symmetric storage halves off-diagonal data.
	if a.Symmetric {
		offDiag := float64(a.NNZ-minInt(a.Rows, a.NNZ)) / 2 // approximation: full diagonal
		add("sym-csr", offDiag*12+float64(a.Rows)*8+float64(a.Rows+1)*4,
			"matrix is symmetric: store one triangle")
	}

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Ratio < recs[j].Ratio })
	return recs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
