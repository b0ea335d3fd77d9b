package autotune

import (
	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/ell"
	"spmv/internal/formats"
)

// Candidate is one (format, encoder options, scheduler hints) combo
// with its analytic prediction and final ranking score.
type Candidate struct {
	Spec formats.Spec `json:"spec"`
	// PredBytes is the predicted bytes-per-SpMV under the traffic
	// model: matrix working set plus the x/y vectors.
	PredBytes int64 `json:"pred_bytes"`
	// Exact marks predictions derived from exact size formulas (or the
	// simulated DU control stream) rather than estimates.
	Exact bool `json:"exact"`
	// Feasible is false when the format cannot represent the matrix
	// (csr16 with wide columns, csr32 with lossy values, sym-csr on an
	// asymmetric matrix, ell past its fill bound); Reason says why.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// PriorGBps and PriorSignificant report the archive prior applied
	// to this candidate (0 / false when no significant prior matched).
	PriorGBps        float64 `json:"prior_gbps,omitempty"`
	PriorSignificant bool    `json:"prior_significant,omitempty"`
	// Score is the ranking key, lower is better: predicted bytes
	// divided by the prior bandwidth ratio when a significant prior
	// exists, plain predicted bytes otherwise. With a roofline model
	// (Options.Roofline) the score is further divided by the ceiling
	// bytes/second, turning it into predicted seconds — the same units
	// as ProbeSecs, and a monotonic transform that leaves the analytic
	// ranking unchanged.
	Score float64 `json:"score"`
	// PredSecs is the roofline floor for this candidate: PredBytes
	// moved at the model's ceiling bandwidth. 0 when tuning ran without
	// a roofline model. Comparing ProbeSecs against it says how far the
	// measured run sat from the memory wall.
	PredSecs float64 `json:"pred_secs,omitempty"`
	// Probed marks candidates the measurement stage timed; ProbeSecs /
	// ProbeStddev / ProbeSampleN summarize the seconds-per-iteration
	// samples and ProbeBytes is the built format's actual traffic.
	Probed       bool    `json:"probed,omitempty"`
	ProbeSecs    float64 `json:"probe_secs,omitempty"`
	ProbeStddev  float64 `json:"probe_stddev,omitempty"`
	ProbeSampleN int     `json:"probe_samples,omitempty"`
	ProbeBytes   int64   `json:"probe_bytes,omitempty"`
}

// Candidates returns the default candidate list for a matrix with the
// given features, in a fixed deterministic order. Formats with hard
// applicability constraints are included but marked infeasible so the
// report shows why they were not considered. csr-du-vi is left out
// where no value dictionary pays: the encoder would build csr-du's
// bytes, and csr-du is already a candidate. Scheduler hints are
// derived from the row-distribution features: heavy skew routes csr,
// the one format with non-zero-split chunks, to nnz partitioning; every
// other format keeps its own executor.
func Candidates(ft Features) []Candidate {
	skewed := ft.RowSkew > 4 || ft.RowCV > 1
	csr := formats.Spec{Format: "csr"}
	if skewed {
		csr.Partition = "nnz"
	}
	specs := []formats.Spec{
		csr,
		{Format: "csr16"},
		{Format: "csr32"},
		{Format: "csr-du"},
		{Format: "csr-vi"},
		{Format: "csr-du-vi"},
		{Format: "dcsr"},
		{Format: "csc"},
		{Format: "ell"},
		{Format: "sym-csr"},
	}
	out := make([]Candidate, 0, len(specs))
	for _, s := range specs {
		if s.Format == "csr-du-vi" && !csrvi.Pays(ft.Unique, ft.NNZ) {
			continue
		}
		c := Candidate{Spec: s}
		c.PredBytes, c.Exact, c.Feasible, c.Reason = PredictBytes(ft, s)
		c.Score = float64(c.PredBytes)
		out = append(out, c)
	}
	return out
}

// PredictBytes predicts the bytes-per-SpMV of building ft's matrix in
// the given spec: the format's storage bytes (exact closed forms where
// the registry formats define them, the simulated control stream for
// the CSR-DU family, a conservative estimate for dcsr) plus the
// §II-B vector traffic. The value-indexed formats are priced by the
// encoder's rule (csrvi.Pays): a dictionary where it pays, the plain
// value stream otherwise. The second result reports whether the
// formula is exact; the last two report feasibility.
func PredictBytes(ft Features, s formats.Spec) (bytes int64, exact, feasible bool, reason string) {
	rows, cols, nnz := int64(ft.Rows), int64(ft.Cols), int64(ft.NNZ)
	vec := core.VectorBytes(ft.Rows, ft.Cols, core.ValSize)
	values := nnz * core.ValSize
	if csrvi.Pays(ft.Unique, ft.NNZ) {
		values = nnz*int64(csrvi.Width(ft.Unique)) + int64(ft.Unique)*core.ValSize
	}
	exact, feasible = true, true
	switch s.Name() {
	case "csr":
		bytes = (rows+1)*core.IdxSize + nnz*(core.IdxSize+core.ValSize)
	case "csr16":
		if ft.Cols > 1<<16 {
			return 0, true, false, "columns exceed 16-bit index range"
		}
		bytes = (rows+1)*core.IdxSize + nnz*(2+core.ValSize)
	case "csr32":
		if !ft.Lossless32 {
			return 0, true, false, "values do not round-trip float32"
		}
		bytes = (rows+1)*core.IdxSize + nnz*(core.IdxSize+4)
	case "csr-du":
		bytes = ft.DUCtlBytes + nnz*core.ValSize
	case "csr-vi":
		bytes = (rows+1)*core.IdxSize + nnz*core.IdxSize + values
	case "csr-du-vi":
		bytes = ft.DUCtlBytes + values
	case "dcsr":
		// The dcsr command stream interleaves row jumps with the same
		// delta classes; its size tracks the DU control stream closely.
		// Estimated: never undercuts csr-du, which precedes it in the
		// candidate order.
		bytes = ft.DUCtlBytes + nnz*core.ValSize + int64(ft.NonEmptyRows)
		exact = false
	case "csc":
		bytes = nnz*(core.IdxSize+core.ValSize) + (cols+1)*core.IdxSize
	case "ell":
		if nnz > 0 && float64(ft.MaxRowNNZ)*float64(rows) > ell.DefaultMaxFill*float64(nnz) {
			return 0, true, false, "padding exceeds ELLPACK fill bound"
		}
		bytes = rows * int64(ft.MaxRowNNZ) * (core.IdxSize + core.ValSize)
	case "sym-csr":
		if !ft.Symmetric {
			return 0, true, false, "matrix not numerically symmetric"
		}
		off := (nnz - int64(ft.DiagNNZ)) / 2
		bytes = rows*core.ValSize + off*(core.IdxSize+core.ValSize) + (rows+1)*core.IdxSize
	default:
		return 0, false, false, "format not modeled"
	}
	return bytes + vec, exact, feasible, ""
}
