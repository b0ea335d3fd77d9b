// Package prof is the structural profiling layer: it explains *why* a
// format performs the way the runtime observability layer (internal/obs)
// measures. A FormatProfile decomposes a built format into its memory
// streams — the §II-B working-set model itemized — and attaches the
// format-specific structure that drives those sizes: the CSR-DU unit
// mix and delta-width histograms, the CSR-VI unique-value count and
// val_ind width. Attribution then joins the predicted stream bytes
// with a measured timing to report which streams dominate the traffic
// and what bandwidth each effectively moved at.
//
// The invariant the package maintains (and its tests pin) is exact
// reconciliation with the traffic model: the profiled stream bytes of
// any format sum to obs.BytesPerSpMV — the same number the bench
// metrics layer divides by. Profiles never estimate; they itemize.
package prof

import (
	"encoding/json"
	"fmt"
	"io"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/obs"
)

// DefaultRegions is the row-band count of the CSR-DU per-region
// breakdown in New.
const DefaultRegions = 8

// Stream is one component of a format's per-iteration memory traffic.
type Stream struct {
	// Name identifies the stream: matrix-side streams use the paper's
	// names (row_ptr, col_ind, values, ctl, val_ind, vals_unique,
	// brow_ptr, bcol_ind), and every profile ends with the dense
	// vectors "x" and "y".
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// VIProfile is the value-indirection structure of CSR-VI and
// CSR-DU-VI (§V).
type VIProfile struct {
	// Codec is the value codec the encoder chose: "plain" where no
	// dictionary is smaller than the values themselves (the matrix then
	// has its unindexed format's size), otherwise "dictionary u8",
	// "u16" or "u32".
	Codec string `json:"codec"`
	// UniqueValues is the size of the vals_unique table (every value,
	// under the plain codec).
	UniqueValues int `json:"unique_values"`
	// IndexWidth is the val_ind element width in bytes: 1, 2 or 4, and
	// 0 under the plain codec.
	IndexWidth int `json:"index_width_bytes"`
	// TTU is the total-to-unique ratio; Applicable is the paper's
	// ttu > 5 criterion (§VI-E).
	TTU        float64 `json:"ttu"`
	Applicable bool    `json:"applicable"`
}

// FormatProfile is the structural profile of one built format: the
// working-set breakdown by stream plus the format-specific structure.
type FormatProfile struct {
	Format string `json:"format"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	NNZ    int    `json:"nnz"`

	// MatrixBytes is the encoded matrix size (Format.SizeBytes);
	// VectorBytes the x+y traffic; WorkingSet their sum — exactly
	// obs.BytesPerSpMV, the §II-B model.
	MatrixBytes int64 `json:"matrix_bytes"`
	VectorBytes int64 `json:"vector_bytes"`
	WorkingSet  int64 `json:"working_set_bytes"`
	// CSRBytes is the baseline CSR encoding of the same matrix;
	// CompressionRatio = MatrixBytes/CSRBytes.
	CSRBytes         int64   `json:"csr_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	BytesPerNNZ      float64 `json:"bytes_per_nnz"`

	// Streams itemizes WorkingSet; the entries always sum to it
	// exactly.
	Streams []Stream `json:"streams"`

	// DU is present for the CSR-DU family, VI for the value-indirected
	// formats.
	DU *csrdu.Profile `json:"du,omitempty"`
	VI *VIProfile     `json:"vi,omitempty"`

	// Attribution joins the profile with a measured timing; nil until
	// Attribute fills it.
	Attribution *Attribution `json:"attribution,omitempty"`
}

// New profiles a built format. Formats outside the compressed families
// get the generic single "matrix" stream; every profile's streams sum
// to obs.BytesPerSpMV(f) exactly.
func New(f core.Format) *FormatProfile {
	p := &FormatProfile{
		Format:      f.Name(),
		Rows:        f.Rows(),
		Cols:        f.Cols(),
		NNZ:         f.NNZ(),
		MatrixBytes: f.SizeBytes(),
		VectorBytes: core.VectorBytes(f.Rows(), f.Cols(), core.ValSize),
		WorkingSet:  obs.BytesPerSpMV(f),
		CSRBytes:    core.CSRBytes(f.Rows(), f.NNZ(), core.IdxSize, core.ValSize),
		BytesPerNNZ: core.BytesPerNNZ(f),
	}
	p.CompressionRatio = core.CompressionRatio(f)
	xy := []Stream{
		{Name: "x", Bytes: int64(f.Cols()) * core.ValSize},
		{Name: "y", Bytes: int64(f.Rows()) * core.ValSize},
	}
	switch m := f.(type) {
	case *csr.Matrix:
		p.Streams = []Stream{
			{Name: "row_ptr", Bytes: int64(len(m.RowPtr)) * core.IdxSize},
			{Name: "col_ind", Bytes: int64(len(m.ColInd)) * core.IdxSize},
			{Name: "values", Bytes: int64(len(m.Values)) * core.ValSize},
		}
	case *csr.Matrix16:
		p.Streams = []Stream{
			{Name: "row_ptr", Bytes: int64(len(m.RowPtr)) * core.IdxSize},
			{Name: "col_ind", Bytes: int64(len(m.ColInd)) * 2},
			{Name: "values", Bytes: int64(len(m.Values)) * core.ValSize},
		}
	case *csr.Matrix32:
		p.Streams = []Stream{
			{Name: "row_ptr", Bytes: int64(len(m.RowPtr)) * core.IdxSize},
			{Name: "col_ind", Bytes: int64(len(m.ColInd)) * core.IdxSize},
			{Name: "values", Bytes: int64(len(m.Values)) * 4},
		}
	case *csrdu.Matrix:
		p.DU = m.Profile(DefaultRegions)
		ctl := Stream{Name: "ctl", Bytes: int64(len(m.Ctl))}
		if m.IndexWidth() == 0 {
			p.Streams = []Stream{ctl, {Name: "values", Bytes: int64(len(m.Values)) * core.ValSize}}
			break
		}
		p.Streams = []Stream{
			ctl,
			{Name: "val_ind", Bytes: m.ValIndBytes()},
			{Name: "vals_unique", Bytes: int64(len(m.Unique)) * core.ValSize},
		}
		p.VI = &VIProfile{
			Codec:        csrvi.CodecName(m.IndexWidth()),
			UniqueValues: len(m.Unique),
			IndexWidth:   m.IndexWidth(),
			TTU:          m.TTU(),
			Applicable:   m.TTU() > csrvi.MinTTU,
		}
	case *csrvi.Matrix:
		p.Streams = []Stream{
			{Name: "row_ptr", Bytes: int64(len(m.RowPtr)) * core.IdxSize},
			{Name: "col_ind", Bytes: int64(len(m.ColInd)) * core.IdxSize},
		}
		if m.IndexWidth() == 0 {
			p.Streams = append(p.Streams, Stream{Name: "values", Bytes: int64(len(m.Unique)) * core.ValSize})
		} else {
			p.Streams = append(p.Streams,
				Stream{Name: "val_ind", Bytes: m.ValIndBytes()},
				Stream{Name: "vals_unique", Bytes: int64(len(m.Unique)) * core.ValSize})
		}
		p.VI = &VIProfile{
			Codec:        csrvi.CodecName(m.IndexWidth()),
			UniqueValues: len(m.Unique),
			IndexWidth:   m.IndexWidth(),
			TTU:          m.TTU(),
			Applicable:   m.Applicable(),
		}
	default:
		p.Streams = []Stream{{Name: "matrix", Bytes: f.SizeBytes()}}
	}
	p.Streams = append(p.Streams, xy...)
	return p
}

// WriteJSON emits the profile as indented JSON.
func (p *FormatProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Fprint writes a human-readable rendering of the profile.
func (p *FormatProfile) Fprint(w io.Writer) error {
	pw := &errWriter{w: w}
	pw.f("format %s: %d x %d, %d nnz\n", p.Format, p.Rows, p.Cols, p.NNZ)
	pw.f("  working set %s = matrix %s + vectors %s (csr %s, ratio %.3f, %.2f B/nnz)\n",
		mb(p.WorkingSet), mb(p.MatrixBytes), mb(p.VectorBytes),
		mb(p.CSRBytes), p.CompressionRatio, p.BytesPerNNZ)
	for _, s := range p.Streams {
		pw.f("  stream %-12s %12d B  %5.1f%%\n", s.Name, s.Bytes, pct(s.Bytes, p.WorkingSet))
	}
	if d := p.DU; d != nil {
		pw.f("  csr-du: %d units (avg %.1f nnz), u8/u16/u32/u64 = %d/%d/%d/%d, rle %d, nr %d, rjmp %d\n",
			d.Units, d.AvgUnitSize, d.PerClass[0], d.PerClass[1], d.PerClass[2], d.PerClass[3],
			d.RLEUnits, d.NRUnits, d.RJMPUnits)
		pw.f("  csr-du ctl: header %d + jump %d + delta %d = %d B\n",
			d.HeaderBytes, d.JumpBytes, d.DeltaBytes, d.CtlBytes)
		pw.f("  unit sizes %s\n", histLine(d.USizeHist, histPow2Label))
		pw.f("  ujmp widths %s\n", histLine(d.UJmpWidthHist, func(i int) string { return fmt.Sprintf("%dB", i+1) }))
		if d.RLEUnits > 0 {
			pw.f("  rle runs %s\n", histLine(d.RLERunHist, histPow2Label))
		}
		pw.f("  rep: %d units cover %d of %d rows (%.1f%% on the fixed-offset path)\n",
			d.RepUnits, d.RepRows, d.Rows, pct(int64(d.RepRows), int64(d.Rows)))
	}
	if v := p.VI; v != nil {
		pw.f("  csr-vi: value codec %s, %d unique values, %d-byte val_ind, ttu %.1f, applicable %v\n",
			v.Codec, v.UniqueValues, v.IndexWidth, v.TTU, v.Applicable)
	}
	if a := p.Attribution; a != nil {
		pw.f("  measured: %.4g s/iter -> %.2f GB/s over %d predicted bytes\n",
			a.SecsPerIter, a.GBps, a.PredictedBytes)
		for _, s := range a.Streams {
			pw.f("  traffic %-12s %5.1f%%  %8.2f GB/s\n", s.Name, s.Frac*100, s.GBps)
		}
		if a.Threads > 0 {
			pw.f("  threads %d, time imbalance %.3f, nnz imbalance %.3f\n",
				a.Threads, a.TimeImbalance, a.NNZImbalance)
		}
	}
	return pw.err
}

// histPow2Label renders the power-of-two bucket labels of
// csrdu.Profile histograms.
func histPow2Label(i int) string {
	if i <= 1 {
		return fmt.Sprintf("%d", i+1)
	}
	return fmt.Sprintf("%d-%d", 1<<(i-1)+1, 1<<i)
}

// histLine renders the non-empty buckets of a histogram on one line.
func histLine(h []int, label func(int) string) string {
	out := ""
	for i, n := range h {
		if n == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("[%s]=%d", label(i), n)
	}
	if out == "" {
		return "(empty)"
	}
	return out
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func mb(b int64) string {
	return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
}

// errWriter latches the first write error so the printers stay
// readable while still propagating failures.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) f(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
