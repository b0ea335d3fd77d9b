package core

import (
	"errors"
	"fmt"
	"runtime"
)

// Verifier is implemented by formats that can check their own
// structural invariants in O(nnz): monotone row pointers, in-range
// column indices, control streams that decode to exactly nnz elements
// without crossing row or chunk boundaries, value indirections that
// stay inside the unique table, and so on.
//
// The compressed formats are effectively bytecodes executed by their
// SpMV kernels, and the kernels trust the encoder completely: a
// corrupted stream reads out of bounds or silently produces a wrong y.
// Verify is the gate that restores safety for data that did not come
// from this process's own encoder — anything loaded from disk, the
// network, or shared memory. The contract, enforced by fuzzing:
//
//	if Verify returns nil, SpMV never reads out of bounds and its
//	result equals the reference CSR result of the decoded triplets.
//
// Errors returned by Verify wrap ErrCorrupt, ErrTruncated or ErrShape
// and respond to errors.Is.
type Verifier interface {
	Verify() error
}

// Sentinel error categories for data validation, tested with errors.Is.
var (
	// ErrCorrupt marks structurally invalid matrix data: out-of-range
	// indices, non-monotone pointers, invalid opcodes, checksum
	// mismatches.
	ErrCorrupt = errors.New("corrupt matrix data")
	// ErrTruncated marks data that ends mid-structure: a varint without
	// its terminator, a unit header without its payload, a short
	// section.
	ErrTruncated = errors.New("truncated matrix data")
	// ErrShape marks dimension mismatches: negative sizes, vectors
	// shorter than the matrix dimensions, section sizes inconsistent
	// with the declared shape.
	ErrShape = errors.New("matrix shape mismatch")
	// ErrUsage marks API misuse by the caller: invalid constructor
	// arguments, operations on an unfinalized COO, tracing before
	// placement. Library code panics with Usagef for these — they are
	// programmer errors, not data errors — and the typed value lets
	// recovering executors distinguish them from corruption traps.
	ErrUsage = errors.New("api misuse")
)

// Corruptf returns an error wrapping ErrCorrupt.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// Truncatedf returns an error wrapping ErrTruncated.
func Truncatedf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrTruncated)...)
}

// Shapef returns an error wrapping ErrShape.
func Shapef(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrShape)...)
}

// Usagef returns an error wrapping ErrUsage, for panicking on
// programmer misuse of the API.
func Usagef(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrUsage)...)
}

// Verify checks f's structural invariants if it implements Verifier;
// formats without a verifier pass trivially (they are plain-array
// formats whose kernels bounds-check naturally, or test fakes).
func Verify(f Format) error {
	if v, ok := f.(Verifier); ok {
		return v.Verify()
	}
	return nil
}

// CheckVectors validates the SpMV operand lengths against the matrix
// dimensions: len(y) >= Rows() and len(x) >= Cols(). The kernels index
// x by decoded column positions and y by decoded rows, so a short
// vector turns a dimension mistake into an out-of-bounds panic deep in
// a worker; this makes it a clean typed error at the API boundary.
func CheckVectors(f Format, y, x []float64) error {
	return CheckVectorDims(f.Rows(), f.Cols(), y, x)
}

// CheckVectorDims is CheckVectors for callers that know the dimensions
// but hold no Format (the executors' shared pool).
func CheckVectorDims(rows, cols int, y, x []float64) error {
	if len(y) < rows {
		return Shapef("len(y) %d < %d rows", len(y), rows)
	}
	if len(x) < cols {
		return Shapef("len(x) %d < %d cols", len(x), cols)
	}
	return nil
}

// SafeSpMV runs f.SpMV with the operand lengths validated first and
// any kernel panic converted to an error. The compressed-format
// kernels trust their streams completely and panic (with errors
// wrapping ErrCorrupt) when they hit bytes that Verify would have
// rejected; SafeSpMV is the serial-path containment for that, matching
// what the parallel executors do per worker.
func SafeSpMV(f Format, y, x []float64) (err error) {
	if err := CheckVectors(f, y, x); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = PanicError(r)
		}
	}()
	f.SpMV(y, x)
	return nil
}

// PanicError converts a recovered panic value into an error. Typed
// error panics keep their sentinel chain; runtime faults (the
// out-of-bounds accesses corrupt data causes in trusting kernels) are
// tagged as corruption.
func PanicError(r any) error {
	switch v := r.(type) {
	case runtime.Error:
		return Corruptf("kernel fault: %v", v)
	case error:
		return v
	default:
		return Corruptf("kernel panic: %v", v)
	}
}

// CheckRowPtr validates a CSR-style row pointer: starts at 0, is
// monotone non-decreasing, and ends exactly at nnz.
func CheckRowPtr(rowPtr []int32, nnz int) error {
	if len(rowPtr) == 0 {
		return Truncatedf("empty row pointer")
	}
	if rowPtr[0] != 0 {
		return Corruptf("row pointer starts at %d, want 0", rowPtr[0])
	}
	for i := 1; i < len(rowPtr); i++ {
		if rowPtr[i] < rowPtr[i-1] {
			return Corruptf("row pointer not monotone at row %d (%d < %d)", i-1, rowPtr[i], rowPtr[i-1])
		}
	}
	if int(rowPtr[len(rowPtr)-1]) != nnz {
		return Shapef("row pointer spans %d elements, want %d", rowPtr[len(rowPtr)-1], nnz)
	}
	return nil
}

// CheckColInd validates that every column index is inside [0, cols).
func CheckColInd(colInd []int32, cols int) error {
	for k, j := range colInd {
		if j < 0 || int(j) >= cols {
			return Corruptf("column index %d at position %d out of range [0,%d)", j, k, cols)
		}
	}
	return nil
}
