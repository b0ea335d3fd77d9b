package core

// Format is a concrete, immutable in-memory sparse matrix representation
// together with its serial SpMV kernel. All storage schemes in this
// library (CSR, CSR-DU, CSR-VI, DCSR, ...) implement Format.
type Format interface {
	// Name identifies the storage scheme, e.g. "csr", "csr-du", "csr-vi".
	Name() string
	// Rows and Cols are the matrix dimensions.
	Rows() int
	Cols() int
	// NNZ is the number of stored non-zero elements. For blocked formats
	// this is the number of logical non-zeros, not the padded count.
	NNZ() int
	// SizeBytes is the in-memory size of the matrix data (index data plus
	// value data), excluding the x and y vectors. This is the quantity
	// the compression schemes reduce.
	SizeBytes() int64
	// SpMV computes y = A*x, overwriting y. len(x) >= Cols(),
	// len(y) >= Rows().
	SpMV(y, x []float64)
}

// Chunk is a contiguous row range of a partitioned matrix, processed by
// one worker of the multithreaded runtime. A chunk's SpMV only writes
// y[lo:hi] for its row range, so disjoint chunks may run concurrently
// (row partitioning, paper §II-C).
type Chunk interface {
	// RowRange returns the half-open row interval [lo, hi) this chunk covers.
	RowRange() (lo, hi int)
	// NNZ is the number of non-zeros in the chunk (load-balance weight).
	NNZ() int
	// SpMV computes y[lo:hi] = A[lo:hi, :]*x. It must not touch y outside
	// the chunk's row range.
	SpMV(y, x []float64)
}

// Splitter is implemented by formats that support row partitioning into
// nnz-balanced chunks (the static balancing scheme of §II-C: each thread
// gets approximately the same number of non-zero elements).
type Splitter interface {
	// Split partitions the matrix into at most n chunks. It returns fewer
	// chunks when the matrix has fewer rows than n. Chunks are ordered by
	// row range and cover all rows exactly once.
	Split(n int) []Chunk
}

// ColChunk is a contiguous column range of a partitioned matrix
// (column partitioning, paper §II-C). Every chunk may touch all of y,
// so the parallel runtime gives each worker a private y and reduces —
// the paper's prescription for avoiding cache-line ping-pong.
type ColChunk interface {
	// ColRange returns the half-open column interval [lo, hi).
	ColRange() (lo, hi int)
	// NNZ is the number of non-zeros in the chunk.
	NNZ() int
	// SpMVAdd accumulates the chunk's contribution into y (y += A[:, lo:hi]*x).
	SpMVAdd(y, x []float64)
}

// ColSplitter is implemented by formats that support nnz-balanced
// column partitioning.
type ColSplitter interface {
	SplitCols(n int) []ColChunk
}

// SpMVAdd is implemented by formats whose kernel can accumulate into y
// (y += A*x) instead of overwriting. Column-partitioned execution needs
// this to reduce per-thread partial vectors.
type SpMVAdd interface {
	SpMVAdd(y, x []float64)
}
