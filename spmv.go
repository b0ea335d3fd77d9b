// Package spmv is a sparse matrix-vector multiplication library built
// around working-set compression, reproducing Kourtis, Goumas and
// Koziris, "Improving the Performance of Multithreaded Sparse
// Matrix-Vector Multiplication Using Index and Value Compression"
// (ICPP 2008).
//
// SpMV is bandwidth-bound on shared-memory multicores: every thread
// streams the matrix from memory through a shared bus, so adding cores
// stops helping once the bus saturates. The paper's two storage
// formats shrink the stream itself:
//
//   - CSR-DU (delta units) compresses the column index data: column
//     indices become per-unit delta sequences stored in the narrowest
//     of 1/2/4/8-byte widths, decoded by one branch per unit.
//   - CSR-VI (value indirection) compresses the numerical data of
//     matrices with few distinct values: each value becomes a 1/2/4-byte
//     index into a unique-value table, wherever that is smaller than
//     the values themselves; elsewhere the values stay plain.
//
// Each keeps its base format's kernel and changes one stream: CSR-VI
// is CSR's row walk reading vals_unique[val_ind[j]] where CSR reads
// values[j]. CSR, CSR32 and CSRVI are therefore one type under three
// value codecs (float64, float32, CSR-VI), as CSRDU and CSRDUVI are
// one type under two; Name reports which codec a matrix was built with.
//
// Both trade CPU cycles for bandwidth — a trade that improves as more
// cores share the memory subsystem, even where the serial kernel gets
// slower.
//
// # Quick start
//
//	c := spmv.NewCOO(rows, cols)
//	c.Add(i, j, v) // ... assemble triplets
//	m, err := spmv.Build(c, spmv.WithFormat("csr-du"))
//	e, err := spmv.NewExecutorOpts(m, spmv.ExecOptions{Threads: 8})
//	defer e.Close()
//	if err := e.Run(y, x); err != nil { // y = A*x on 8 goroutines
//		log.Fatal(err)
//	}
//
// With several right-hand sides, batch them into row-major n×k panels
// and let one pass over the compressed matrix stream serve all k
// vectors (see the "Batched SpMV" section of the README):
//
//	// X is cols×k, Y is rows×k, element (i, c) at [i*k+c].
//	if err := e.RunBatch(Y, X, k); err != nil {
//		log.Fatal(err)
//	}
//
// Not sure which format fits the matrix? Let the autotuner decide —
// it times the paper's formats against CSR on this host and reports
// what it measured:
//
//	var rep spmv.TuneReport
//	m, err := spmv.Build(c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
//
// # Validation
//
// The compressed formats are bytecodes, and a corrupt stream is a wild
// pointer waiting to happen. Every format implements Verify, an O(nnz)
// structural self-check; run it on any matrix whose bytes crossed a
// trust boundary (files, sockets, shared memory):
//
//	m, err := spmv.ReadMatrix(f) // already CRC-checked and verified
//	if err := spmv.Verify(m); err != nil {
//		// errors.Is(err, spmv.ErrCorrupt / ErrTruncated / ErrShape)
//		log.Fatal(err)
//	}
//
// The parallel executors additionally recover kernel panics into errors
// naming the failing chunk's row range, so one rotten stream cannot
// take down the process.
//
// The package also provides the comparator formats (CSR32, DCSR,
// symmetric CSR), row- and nonzero-partitioned parallel executors plus
// a tree-reducing one for symmetric CSR, CG/PCG/GMRES/BiCGSTAB solvers
// with ILU(0) preconditioning and mixed-precision refinement, RCM
// reordering, Matrix Market and binary container I/O, synthetic
// matrix generators, and a deterministic simulator of the paper's
// 8-core Clovertown platform for reproducing its evaluation (see
// cmd/spmvsim and EXPERIMENTS.md).
package spmv

import (
	"io"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/dcsr"
	"spmv/internal/formats"
	"spmv/internal/matfile"
	"spmv/internal/mmio"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/precond"
	"spmv/internal/prof"
	"spmv/internal/reorder"
	"spmv/internal/server"
	"spmv/internal/solver"
	"spmv/internal/sym"
)

// Core vocabulary, shared by every format.
type (
	// COO is the triplet assembly matrix all formats are built from.
	COO = core.COO
	// Format is any sparse storage scheme with an SpMV kernel.
	Format = core.Format
	// Chunk is a row-partitioned piece of a matrix.
	Chunk = core.Chunk
	// Splitter is a format supporting row partitioning.
	Splitter = core.Splitter
	// NNZSplitter is a format supporting nonzero-split partitioning:
	// chunk boundaries fall every nnz/n elements, mid-row where needed,
	// so load balance is immune to row-length skew. CSR implements it.
	NNZSplitter = core.NNZSplitter
	// NNZChunk is one half-open nonzero range of an NNZSplitter.
	NNZChunk = core.NNZChunk
)

// Concrete formats, usable through Format or directly.
type (
	// CSR is the baseline Compressed Sparse Row matrix (32-bit indices).
	CSR = csr.Matrix
	// CSRDU is the paper's delta-unit index-compressed matrix.
	CSRDU = csrdu.Matrix
	// DUOptions controls the CSR-DU encoder (RLE units, unit splitting).
	DUOptions = csrdu.Options
	// CSRVI is the paper's value-indexed matrix: a CSR under the
	// csr-vi value codec (dictionary where it pays, plain values
	// elsewhere).
	CSRVI = csr.Matrix
	// CSRDUVI combines CSR-DU index compression with CSR-VI values: a
	// CSRDU under the dictionary value codec (csr-du itself where no
	// dictionary pays).
	CSRDUVI = csrdu.Matrix
	// DCSR is the Willcock & Lumsdaine comparator format.
	DCSR = dcsr.Matrix
	// CSR32 stores single-precision values (half the value stream): a
	// CSR under the float32 value codec. Pair with Refine for
	// double-precision solutions.
	CSR32 = csr.Matrix
	// SymCSR stores one triangle of a symmetric matrix.
	SymCSR = sym.Matrix
)

// NewCOO returns an empty rows×cols triplet matrix. Assemble with Add,
// then pass to Build (which finalizes it in place).
func NewCOO(rows, cols int) *COO { return core.NewCOO(rows, cols) }

// NewSymCSR builds symmetric (one-triangle) storage; the matrix must be
// numerically symmetric within tol. The registry's "sym-csr" entry
// fixes tol at its default; this constructor accepts any tolerance.
func NewSymCSR(c *COO, tol float64) (*SymCSR, error) { return sym.FromCOO(c, tol) }

// FormatNames lists every format Build (via WithFormat) accepts.
func FormatNames() []string { return formats.Names() }

// Validation. All format constructors produce internally consistent
// matrices; Verify matters when the encoded bytes arrived from outside
// (ReadMatrix runs it automatically) or may have been tampered with.

// Verifier is a format that can structurally self-check its encoded
// streams in O(nnz). Every format in this package implements it.
type Verifier = core.Verifier

// Sentinel classes for validation failures; test with errors.Is.
var (
	// ErrCorrupt reports structurally invalid encoded data (bad opcode,
	// out-of-range index, checksum mismatch).
	ErrCorrupt = core.ErrCorrupt
	// ErrTruncated reports data that ends mid-structure.
	ErrTruncated = core.ErrTruncated
	// ErrShape reports dimension mismatches (matrix/vector/section sizes).
	ErrShape = core.ErrShape
	// ErrUsage reports caller mistakes (unknown format name, bad panel
	// width, running a closed executor).
	ErrUsage = core.ErrUsage
)

// Verify structurally checks f if it implements Verifier and returns
// nil otherwise.
func Verify(f Format) error { return core.Verify(f) }

// SafeSpMV runs one serial y = f*x with vector-length validation and
// kernel-panic containment — the single-threaded analogue of
// Executor.Run's error handling.
func SafeSpMV(f Format, y, x []float64) error { return core.SafeSpMV(f, y, x) }

// Batched (multi-vector) SpMV. Panels are row-major: X is cols×k with
// element j of vector c at X[j*k+c], Y is rows×k likewise. One pass
// over the matrix stream computes all k products, so the per-vector
// memory traffic falls as BytesPerSpMM(f, k)/k.

// BatchFormat is a format with a fused multi-vector kernel. CSR,
// CSR-DU, CSR-VI and CSR-DU-VI implement it; SpMVBatch falls back to a
// per-column loop for every other format.
type BatchFormat = core.BatchFormat

// SpMVBatch computes the rows×k panel y = f*x serially, using f's fused
// batch kernel when it has one. k=1 is bitwise identical to f.SpMV.
// Panels must be at least rows*k and cols*k long; use SafeSpMVBatch for
// checked dimensions.
func SpMVBatch(f Format, y, x []float64, k int) { core.SpMVBatch(f, y, x, k) }

// SafeSpMVBatch is SpMVBatch with panel-dimension validation and
// kernel-panic containment.
func SafeSpMVBatch(f Format, y, x []float64, k int) error {
	return core.SafeSpMVBatch(f, y, x, k)
}

// Parallel runtime.
type (
	// Executor is the row-partitioned multithreaded SpMV driver: its
	// workers claim fixed row units from one counter (self-scheduling).
	Executor = parallel.Executor
	// NNZExecutor is the nonzero-split driver: chunk boundaries fall
	// mid-row, so one pathologically long row no longer serializes a
	// run (Partition: "nnz"; CSR only).
	NNZExecutor = parallel.NNZExecutor
	// SymExecutor parallelizes the symmetric (scatter) kernel with
	// private vectors and a deterministic tree reduction.
	SymExecutor = parallel.SymExecutor
	// Runner is the interface all executors satisfy: scalar and batched
	// runs, telemetry attachment, shutdown. NewExecutorOpts returns it.
	Runner = parallel.Runner
	// ExecOptions configures NewExecutorOpts.
	ExecOptions = parallel.ExecOptions
)

// NewExecutorOpts starts an executor over f under one options struct:
// Threads (<= 0 means GOMAXPROCS), an optional telemetry Collector,
// and the Partition strategy ("" for the executor f supports — row
// units, or the symmetric tree reduction for sym-csr — "row", or "nnz"
// for CSR's nonzero-split chunks). The row executor self-schedules fixed
// row units, so it stays balanced on skewed matrices too. The
// deprecated Steal field selects the row executor. An unknown
// partition, or Steal combined with a non-row partition, is an
// ErrUsage.
func NewExecutorOpts(f Format, o ExecOptions) (Runner, error) {
	return parallel.New(f, o)
}

// Observability. Every executor accepts a Collector via SetCollector;
// with none attached the runtime cost is a nil check per run.
type (
	// Collector receives one RunStat per completed executor run.
	Collector = obs.Collector
	// RunStat is the telemetry of one parallel SpMV run.
	RunStat = obs.RunStat
	// ChunkStat is one worker's share of a run.
	ChunkStat = obs.ChunkStat
	// Recorder is a thread-safe aggregating Collector.
	Recorder = obs.Recorder
)

// NewRecorder returns an empty telemetry recorder, ready to pass to an
// executor's SetCollector.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// BytesPerSpMV estimates the memory traffic of one cold-cache SpMV on
// f (matrix stream plus the dense vectors) — the numerator of the
// effective-bandwidth figure GB/s = BytesPerSpMV / secs / 1e9.
func BytesPerSpMV(f Format) int64 { return obs.BytesPerSpMV(f) }

// BytesPerSpMM estimates the traffic of one cold-cache k-column batched
// multiplication: one matrix stream plus k panels of x and y. At k=1 it
// equals BytesPerSpMV.
func BytesPerSpMM(f Format, k int) int64 { return obs.BytesPerSpMM(f, k) }

// BytesPerVector is BytesPerSpMM(f, k)/k — the per-result-vector
// traffic, which falls towards the dense-vector floor as k grows. The
// honest per-vector bandwidth of a batched run is
// GB/s = BytesPerVector(f, k) / (secs/k) / 1e9.
func BytesPerVector(f Format, k int) float64 { return obs.BytesPerVector(f, k) }

// Profiling. Profile walks a built format and reports where its bytes
// live; Attribute joins a profile with a measured timing.
type (
	// FormatProfile is the structural profile of a built format: its
	// per-stream byte split of the traffic model plus format-specific
	// statistics (CSR-DU ctl units, CSR-VI dictionary).
	FormatProfile = prof.FormatProfile
	// Attribution splits a measured bandwidth across a profile's
	// streams in proportion to their predicted traffic.
	Attribution = prof.Attribution
	// ProfileSeries is a Collector recording a per-iteration time
	// series (wall time, load imbalance) of an executor's runs.
	ProfileSeries = prof.Series
)

// Profile returns the structural profile of a built format. The
// profiled stream bytes sum exactly to BytesPerSpMV(f).
func Profile(f Format) *FormatProfile { return prof.New(f) }

// AttributeBandwidth splits a measured seconds-per-iteration across
// the profile's streams; last, when non-nil, contributes the run's
// thread count and load-imbalance telemetry.
func AttributeBandwidth(p *FormatProfile, secsPerIter float64, last *RunStat) *Attribution {
	return prof.Attribute(p, secsPerIter, last)
}

// NewProfileSeries returns a time-series Collector keeping at most
// maxPoints runs (<= 0 means a default cap).
func NewProfileSeries(maxPoints int) *ProfileSeries { return prof.NewSeries(maxPoints) }

// Solvers.
type (
	// Operator is a square y = A*x operator for the solvers.
	Operator = solver.Operator
	// SolveResult reports solver convergence.
	SolveResult = solver.Result
)

// NewOperator wraps a square format for the solvers.
func NewOperator(f Format) (Operator, error) { return solver.FromFormat(f) }

// NewParallelOperator wraps a parallel executor as an n×n operator.
func NewParallelOperator(r solver.Runner, n int) Operator { return solver.FromRunner(r, n) }

// CG solves A*x = b for SPD A by conjugate gradients; x holds the
// initial guess and the solution.
func CG(a Operator, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solver.CG(a, b, x, tol, maxIter)
}

// PCG is CG with a Jacobi preconditioner (invDiag = 1/diag(A); see
// JacobiInvDiag).
func PCG(a Operator, invDiag, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solver.PCG(a, invDiag, b, x, tol, maxIter)
}

// JacobiInvDiag extracts 1/diag(A) from triplets for PCG.
func JacobiInvDiag(c *COO) ([]float64, error) { return solver.InvDiag(c) }

// Preconditioner applies z = M^{-1} r for the preconditioned solvers.
type Preconditioner = solver.Preconditioner

// ILU0 is the zero-fill incomplete LU preconditioner.
type ILU0 = precond.ILU0

// NewILU0 factors a square matrix for use with CGPrec or
// RightPreconditioned GMRES/BiCGSTAB.
func NewILU0(c *COO) (*ILU0, error) { return precond.NewILU0(c) }

// CGPrec is conjugate gradients with a general SPD preconditioner.
func CGPrec(a Operator, m Preconditioner, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solver.CGPrec(a, m, b, x, tol, maxIter)
}

// RightPreconditioned wraps a as A·M^{-1}; solve the returned operator
// for u with GMRES/BiCGSTAB, then call finish(u) to recover x.
func RightPreconditioned(a Operator, m Preconditioner) (Operator, func(u []float64) []float64) {
	return solver.RightPreconditioned(a, m)
}

// GMRES solves A*x = b for general A by restarted GMRES(restart).
func GMRES(a Operator, b, x []float64, restart int, tol float64, maxIter int) (SolveResult, error) {
	return solver.GMRES(a, b, x, restart, tol, maxIter)
}

// BiCGSTAB solves A*x = b for general A by stabilized bi-conjugate
// gradients (no transpose products needed).
func BiCGSTAB(a Operator, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solver.BiCGSTAB(a, b, x, tol, maxIter)
}

// Refine runs mixed-precision iterative refinement: inner solves on the
// cheap (e.g. CSR32) operator, outer double-precision residual
// correction on the accurate one (Langou et al., paper §III-C).
func Refine(aFull, aInner Operator, b, x []float64, tol float64, maxOuter, innerIter int) (SolveResult, error) {
	return solver.Refine(aFull, aInner, b, x, tol, maxOuter, innerIter)
}

// I/O.

// ReadMatrixMarket parses a Matrix Market stream into triplets.
func ReadMatrixMarket(r io.Reader) (*COO, error) { return mmio.Read(r) }

// WriteMatrixMarket writes triplets as a general real coordinate
// Matrix Market file.
func WriteMatrixMarket(w io.Writer, c *COO) error { return mmio.Write(w, c) }

// WriteMatrix serializes an encoded matrix (CSR, CSR-DU or CSR-VI) in
// the library's binary container, so the O(nnz) encoding pass runs once
// and solver processes load the compressed form directly.
func WriteMatrix(w io.Writer, f Format) error { return matfile.Write(w, f) }

// ReadMatrix loads a matrix written by WriteMatrix; the concrete type
// matches the stored format.
func ReadMatrix(r io.Reader) (Format, error) { return matfile.Read(r) }

// ReadMatrixSized loads a matrix written by WriteMatrix from a stream
// whose total length is known (a file's size, an HTTP body's length).
// Unlike ReadMatrix it rejects section lengths exceeding the remaining
// input before allocating anything, so hostile headers claiming
// gigabyte sections cost nothing — use it whenever the bytes crossed a
// trust boundary.
func ReadMatrixSized(r io.Reader, total int64) (Format, error) { return matfile.ReadSized(r, total) }

// Serving (DESIGN.md §12, cmd/spmvd).

type (
	// Server is the embeddable SpMV-as-a-service HTTP handler: a
	// verified matrix registry with content-addressed caching and LRU
	// eviction, and an admission-controlled, deadline-bounded multiply
	// pipeline that coalesces concurrent requests into SpMM panels.
	Server = server.Server
	// ServerConfig configures NewServer; its zero value serves with
	// sensible defaults.
	ServerConfig = server.Config
)

// NewServer returns the SpMV HTTP service as an http.Handler. Shut it
// down with Drain (graceful) or Close (immediate).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Analysis helpers.

// WorkingSet returns the CSR SpMV working set in bytes (matrix data
// plus vectors), the quantity the compressed formats reduce.
func WorkingSet(c *COO) int64 { return core.WorkingSet(c.Rows(), c.Cols(), c.Len()) }

// CompressionRatio returns size(f)/size(CSR) for the same matrix;
// below 1 means f is smaller.
func CompressionRatio(f Format) float64 { return core.CompressionRatio(f) }

// Reordering (RCM bandwidth reduction, §III-A related work).

// RCM returns a reverse Cuthill-McKee permutation (perm[new] = old) of
// a square matrix. Reordering shrinks column deltas, improving both
// x locality and CSR-DU compression.
func RCM(c *COO) ([]int32, error) { return reorder.RCM(c) }

// PermuteMatrix applies a symmetric permutation returned by RCM.
func PermuteMatrix(c *COO, perm []int32) (*COO, error) { return reorder.Permute(c, perm) }

// PermuteVec gathers a vector into permuted order; UnpermuteVec undoes it.
func PermuteVec(x []float64, perm []int32) []float64 { return reorder.PermuteVec(x, perm) }

// UnpermuteVec scatters a permuted vector back to original order.
func UnpermuteVec(y []float64, perm []int32) []float64 { return reorder.UnpermuteVec(y, perm) }

// Bandwidth returns max |i-j| over the non-zeros.
func Bandwidth(c *COO) int { return reorder.Bandwidth(c) }
