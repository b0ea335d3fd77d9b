// Package formats is the registry of storage schemes by name: one
// place where a format string ("csr-du", "csr-vi", ...) becomes a
// constructor call. The experiment harness, the empirical autotuner and
// the command-line tools all build formats through it.
package formats

import (
	"strings"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/dcsr"
	"spmv/internal/sym"
)

// Spec is one complete build candidate: the format name, the encoder
// options it takes, and the scheduler hints that should accompany the
// built format at execution time. The autotuner times Specs, the bench
// harness measures them and the server records them — one struct
// instead of three call sites re-plumbing (name, DU, partition)
// separately. The scheduler fields are carried as plain data: this
// package does not depend on the executor, callers map them onto
// parallel.ExecOptions themselves.
type Spec struct {
	// Format is the registry name ("csr", "csr-du", ...). Empty means
	// "csr".
	Format string `json:"format"`
	// DU carries encoder options for the CSR-DU family; other formats
	// ignore it.
	DU csrdu.Options `json:"du,omitempty"`
	// Partition is the execution-time work split: "" for the format's
	// own scheme (see parallel.New), "row" for row-balanced chunks,
	// "nnz" for non-zero-balanced chunks (CSR only).
	Partition string `json:"partition,omitempty"`
	// Steal maps onto parallel.ExecOptions.Steal.
	//
	// Deprecated: the row executor self-schedules; nothing sets Steal.
	Steal bool `json:"steal,omitempty"`
}

// Name returns the effective format name ("csr" when unset).
func (s Spec) Name() string {
	if s.Format == "" {
		return "csr"
	}
	return s.Format
}

// Build constructs the named format from a triplet matrix with default
// options.
func Build(name string, c *core.COO) (core.Format, error) {
	return BuildOpts(name, c, csrdu.Options{})
}

// BuildSpec constructs the Spec's format from a triplet matrix. The
// scheduler hint (Partition) does not affect construction; they
// ride along for the caller's executor setup. An unknown format name
// returns an error wrapping core.ErrUsage that lists the valid names.
func BuildSpec(c *core.COO, s Spec) (core.Format, error) {
	return BuildOpts(s.Name(), c, s.DU)
}

// BuildOpts constructs the named format from a triplet matrix. du
// carries the encoder options of the CSR-DU family ("csr-du",
// "csr-du-vi"; du.RLE builds the matrix csr-du names "csr-du-rle");
// other formats ignore it. An unknown name returns an error wrapping
// core.ErrUsage that lists the valid names.
func BuildOpts(name string, c *core.COO, du csrdu.Options) (core.Format, error) {
	switch name {
	case "csr":
		return csr.FromCOO(c)
	case "csr32":
		return csr.From32(c)
	case "csr-du":
		return csrdu.FromCOOOpts(c, du)
	case "csr-vi":
		return csr.FromCOOVI(c)
	case "csr-du-vi":
		return csrdu.FromCOOVI(c, du)
	case "dcsr":
		return dcsr.FromCOO(c)
	case "sym-csr":
		return sym.FromCOO(c, 1e-12)
	default:
		return nil, core.Usagef("formats: unknown format %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Names returns every registered format name.
func Names() []string {
	return []string{
		"csr", "csr32",
		"csr-du", "csr-vi", "csr-du-vi",
		"dcsr", "sym-csr",
	}
}
