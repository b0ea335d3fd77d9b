// Package autotune selects the storage format and scheduler for a
// matrix automatically. It is the repo's realization of ROADMAP item 2
// and of the direction the paper's authors took after CSR-DU/VI: the
// best of the registry's formats depends on measurable structure
// (delta-width histograms, unique-value counts, nnz/row skew, banding,
// symmetry), so the tuner extracts those features, ranks every
// candidate by predicted bytes-per-SpMV under the §II-B traffic model,
// blends in measured per-host priors from the benchmark archive when
// they are statistically significant, and optionally short-probes the
// top candidates within a time budget to let the hardware cast the
// deciding vote.
package autotune

import (
	"math"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/prof"
	"spmv/internal/reorder"
	"spmv/internal/varint"
)

// Features are the structural properties of a matrix that drive format
// selection. Every field is derived deterministically from the triplet
// data: extracting twice yields identical values.
type Features struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	NNZ  int `json:"nnz"`

	// Row distribution: non-empty row count, extreme/mean nnz per row,
	// the coefficient of variation across all rows, and the skew ratio
	// max/mean. High skew is what makes static row partitions collapse
	// and nnz splitting or work stealing win.
	NonEmptyRows int     `json:"non_empty_rows"`
	MaxRowNNZ    int     `json:"max_row_nnz"`
	AvgRowNNZ    float64 `json:"avg_row_nnz"`
	RowCV        float64 `json:"row_cv"`
	RowSkew      float64 `json:"row_skew"`

	// Column-delta structure: intra-row column gaps bucketed by the
	// narrowest CSR-DU width class that holds them (u8/u16/u32/u64),
	// and the count of unit-stride gaps (delta == 1).
	DeltaHist [4]int64 `json:"delta_hist"`
	DeltaEq1  int64    `json:"delta_eq1"`

	// Value redundancy: distinct float64 values, distinct values after
	// float32 truncation, whether every value round-trips float32
	// losslessly, and the paper's ttu = nnz/unique indirection ratio.
	Unique     int     `json:"unique"`
	Unique32   int     `json:"unique32"`
	Lossless32 bool    `json:"lossless32"`
	TTU        float64 `json:"ttu"`

	// Bandwidth before and after RCM reordering (square matrices only;
	// -1 when not computed). A large drop means the matrix is banded in
	// disguise and reordering-based formats deserve a look.
	Bandwidth    int `json:"bandwidth"`
	BandwidthRCM int `json:"bandwidth_rcm"`

	// Symmetry: the fraction of off-diagonal entries whose transposed
	// counterpart exists with the same value (1e-12 relative tolerance,
	// matching sym.FromCOO), and whether the matrix is fully symmetric
	// (square, SymFrac == 1).
	SymFrac   float64 `json:"sym_frac"`
	Symmetric bool    `json:"symmetric"`

	// DiagNNZ counts the entries on the main diagonal (sym-csr stores
	// them apart from the off-diagonal triangle).
	DiagNNZ int `json:"diag_nnz"`

	// Exact simulated CSR-DU control-stream size (default encoder
	// options). It makes the csr-du family's size predictions exact
	// rather than modeled.
	DUCtlBytes int64 `json:"du_ctl_bytes"`

	// Approx marks features recovered from an already-built format
	// (ExtractFormat) where the triplet data was not available; only
	// the fields a FormatProfile exposes are populated.
	Approx bool `json:"approx,omitempty"`
}

// Extract computes the feature vector of a triplet matrix. The COO is
// finalized in place if needed. Cost is O(nnz) plus one RCM pass for
// square matrices.
func Extract(c *core.COO) Features {
	c.Finalize()
	ft := Features{Rows: c.Rows(), Cols: c.Cols(), NNZ: c.Len(), BandwidthRCM: -1}

	rowNNZ := make([]int64, c.Rows())
	uniq := make(map[uint64]struct{})
	uniq32 := make(map[uint32]struct{})
	ft.Lossless32 = true
	bw := 0
	prevRow := -1
	prevCol := 0
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		rowNNZ[i]++
		bits := math.Float64bits(v)
		uniq[bits] = struct{}{}
		uniq32[math.Float32bits(float32(v))] = struct{}{}
		if !core.SameBits(v, float64(float32(v))) {
			ft.Lossless32 = false
		}
		if i == j {
			ft.DiagNNZ++
		}
		if d := j - i; d > bw {
			bw = d
		} else if -d > bw {
			bw = -d
		}
		if i == prevRow {
			d := uint64(j - prevCol)
			ft.DeltaHist[deltaClass(d)]++
			if d == 1 {
				ft.DeltaEq1++
			}
		}
		prevRow, prevCol = i, j
	}
	ft.Unique = len(uniq)
	ft.Unique32 = len(uniq32)
	ft.Bandwidth = bw
	if ft.Unique > 0 {
		ft.TTU = float64(ft.NNZ) / float64(ft.Unique)
	}

	var sumN, sumSq float64
	for _, n := range rowNNZ {
		if n > 0 {
			ft.NonEmptyRows++
		}
		if int(n) > ft.MaxRowNNZ {
			ft.MaxRowNNZ = int(n)
		}
		sumN += float64(n)
		sumSq += float64(n) * float64(n)
	}
	if c.Rows() > 0 {
		mean := sumN / float64(c.Rows())
		ft.AvgRowNNZ = mean
		if mean > 0 {
			variance := sumSq/float64(c.Rows()) - mean*mean
			if variance > 0 {
				ft.RowCV = math.Sqrt(variance) / mean
			}
			ft.RowSkew = float64(ft.MaxRowNNZ) / mean
		}
	}

	ft.SymFrac, ft.Symmetric = symmetry(c)
	if c.Rows() == c.Cols() && c.Len() > 0 {
		if perm, err := reorder.RCM(c); err == nil {
			if pc, err := reorder.Permute(c, perm); err == nil {
				ft.BandwidthRCM = reorder.Bandwidth(pc)
			}
		}
	}

	ft.DUCtlBytes = simulateDUCtl(c, csrdu.Options{})
	return ft
}

// symmetry returns the fraction of off-diagonal entries whose mirror
// entry exists with a matching value, and whether the whole matrix is
// numerically symmetric (the sym.FromCOO admission test).
func symmetry(c *core.COO) (frac float64, full bool) {
	if c.Rows() != c.Cols() {
		return 0, false
	}
	offDiag := c.Len() - diagCount(c)
	if offDiag == 0 {
		return 1, true
	}
	t := c.Transpose()
	matched := 0
	// Both sides are finalized, so a parallel merge walk finds mirrors.
	const tol = 1e-12
	for k, kt := 0, 0; k < c.Len() && kt < t.Len(); {
		i1, j1, v1 := c.At(k)
		i2, j2, v2 := t.At(kt)
		switch {
		case i1 < i2 || (i1 == i2 && j1 < j2):
			k++
		case i2 < i1 || (i1 == i2 && j2 < j1):
			kt++
		default:
			if i1 != j1 && math.Abs(v1-v2) <= tol*(1+math.Max(math.Abs(v1), math.Abs(v2))) {
				matched++
			}
			k++
			kt++
		}
	}
	frac = float64(matched) / float64(offDiag)
	return frac, matched == offDiag
}

// diagCount returns the number of entries on the main diagonal.
func diagCount(c *core.COO) int {
	n := 0
	for k := 0; k < c.Len(); k++ {
		i, j, _ := c.At(k)
		if i == j {
			n++
		}
	}
	return n
}

// simulateDUCtl replays the CSR-DU encoder's unit-splitting rules over
// the finalized COO counting control bytes only — no value or ctl
// allocation. The walk mirrors csrdu.encodeBlock exactly (greedy class
// extension with MinSwitch widening, the 255-element unit cap, RLE run
// detection, NR/RJMP headers, varint jumps, and the greedy REP run of
// rows that repeat a one-unit row, which costs one count byte);
// features_test pins it byte-for-byte against the real encoder.
func simulateDUCtl(c *core.COO, opts csrdu.Options) int64 {
	if opts.RLEMin == 0 {
		opts.RLEMin = 6
	}
	if opts.MinSwitch == 0 {
		opts.MinSwitch = 4
	}
	var total int64
	prevRow := -1
	n := c.Len()
	for k := 0; k < n; {
		row, start := int(c.I[k]), k
		for k < n && int(c.I[k]) == row {
			k++
		}
		bytes, single := simulateRow(row, prevRow, c.J[start:k], opts)
		total += bytes
		prevRow = row
		if !single {
			continue
		}
		r, size := 0, k-start
		for r < csrdu.MaxRep && k < n && csrdu.RepeatsPrev(c, start+r*size, k, n) {
			k += size
			r++
		}
		if r > 0 {
			total++
			prevRow += r
		}
	}
	return total
}

// simulateRow counts the ctl bytes one row's units would occupy, and
// reports whether the row is one non-RLE unit, which can carry a REP
// run.
func simulateRow(row, prevRow int, cols []int32, opts csrdu.Options) (bytes int64, single bool) {
	newRow := true
	prevCol := int32(0)
	unitHeader := func(ujmp uint64) {
		bytes += 2 // uflags + usize
		if newRow && row-prevRow > 1 {
			bytes += int64(varint.Len(uint64(row - prevRow)))
		}
		bytes += int64(varint.Len(ujmp))
	}
	t := 0
	for t < len(cols) {
		if opts.RLE {
			run := 1
			for t+run < len(cols) && run < 255 &&
				cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
				run++
			}
			if run >= opts.RLEMin {
				unitHeader(uint64(cols[t] - prevCol))
				bytes += int64(varint.Len(uint64(cols[t+1] - cols[t])))
				prevCol = cols[t+run-1]
				t += run
				newRow = false
				single = false
				continue
			}
		}
		start := t
		cls := 0 // ClassU8
		t++
		for t < len(cols) && t-start < 255 {
			if opts.RLE {
				run := 1
				for t+run < len(cols) && run < 255 &&
					cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
					run++
				}
				if run >= opts.RLEMin {
					break
				}
			}
			cc := deltaClass(uint64(cols[t] - cols[t-1]))
			if cc > cls {
				if t-start >= opts.MinSwitch {
					break
				}
				cls = cc
			}
			t++
		}
		unitHeader(uint64(cols[start] - prevCol))
		bytes += int64(t-start-1) * int64(1<<cls)
		single = newRow
		prevCol = cols[t-1]
		newRow = false
	}
	return bytes, single
}

// deltaClass mirrors csrdu's width classing: the narrowest class
// (0=u8 .. 3=u64) that holds d.
func deltaClass(d uint64) int {
	switch {
	case d < 1<<8:
		return 0
	case d < 1<<16:
		return 1
	case d < 1<<32:
		return 2
	default:
		return 3
	}
}

// ExtractFormat recovers an approximate feature vector from an
// already-built format via its structural profile, for callers that no
// longer hold the triplets (e.g. a pre-built matfile upload). Only the
// dimensions and the profile-visible compression features are
// populated; Approx is set so downstream consumers know the vector is
// partial.
func ExtractFormat(f core.Format) Features {
	ft := Features{
		Rows: f.Rows(), Cols: f.Cols(), NNZ: f.NNZ(),
		Approx: true, BandwidthRCM: -1,
	}
	p := prof.New(f)
	if p.VI != nil {
		ft.Unique = p.VI.UniqueValues
		ft.TTU = p.VI.TTU
	}
	if p.DU != nil {
		ft.DUCtlBytes = int64(p.DU.CtlBytes)
	}
	return ft
}
