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

// ScatterChunk is a contiguous range [lo, hi) of stored-triangle rows
// of a scatter-kernel format (sym-csr). Its kernel applies each stored
// element twice, so a chunk writes y outside its own rows too — into
// any y[j] with j < hi — and the parallel runtime gives each worker a
// private y and reduces, the paper's prescription (§II-C) for kernels
// whose writes overlap.
type ScatterChunk interface {
	// RowRange returns the half-open stored-triangle row interval [lo, hi).
	RowRange() (lo, hi int)
	// NNZ is the chunk's load-balance weight.
	NNZ() int
	// SpMVAdd accumulates the chunk's rows, and their scattered
	// transposes, into y (which may be written anywhere below hi).
	SpMVAdd(y, x []float64)
}

// ScatterSplitter is implemented by scatter-kernel formats that cut
// their stored rows into nnz-balanced scatter chunks: sym-csr, whose
// chunks run on parallel.SymExecutor.
type ScatterSplitter interface {
	SplitScatter(n int) []ScatterChunk
}
