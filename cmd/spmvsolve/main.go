// Command spmvsolve solves A x = b for a Matrix Market matrix: it takes
// a storage format or lets the autotuner time the paper's formats and
// pick one, optionally builds an ILU(0) preconditioner, runs the
// requested Krylov method on the requested number of threads, and
// reports convergence and timing.
//
// Usage:
//
//	spmvsolve -method cg -format auto -threads 4 matrix.mtx
//	spmvsolve -method gmres -ilu matrix.mtx        # nonsymmetric + ILU(0)
//
// The right-hand side is all ones.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"spmv"
)

func main() {
	method := flag.String("method", "cg", "cg|pcg|gmres|bicgstab")
	format := flag.String("format", "auto", "storage format or 'auto' (the autotuner times the paper's formats and picks)")
	threads := flag.Int("threads", 1, "worker goroutines for SpMV")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	maxIter := flag.Int("maxiter", 100000, "matrix-vector product budget")
	restart := flag.Int("restart", 30, "GMRES restart length")
	ilu := flag.Bool("ilu", false, "precondition with ILU(0) (gmres/bicgstab via right preconditioning, cg via CGPrec)")
	stats := flag.Bool("stats", false, "report SpMV runtime telemetry after the solve (threads > 1)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: spmvsolve [flags] matrix.mtx")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *method, *format, *threads, *tol, *maxIter, *restart, *ilu, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "spmvsolve:", err)
		os.Exit(1)
	}
}

func run(path, method, format string, threads int, tol float64, maxIter, restart int, useILU, stats bool) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	c, err := spmv.ReadMatrixMarket(f)
	if err != nil {
		return err
	}
	if c.Rows() != c.Cols() {
		return fmt.Errorf("matrix must be square, got %dx%d", c.Rows(), c.Cols())
	}
	n := c.Rows()
	fmt.Printf("matrix: %dx%d, %d nnz, ws %.1f MB\n", n, n, c.Len(),
		float64(spmv.WorkingSet(c))/(1<<20))

	var m spmv.Format
	var rep spmv.TuneReport
	if format == "auto" {
		m, err = spmv.Build(c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
	} else {
		m, err = spmv.Build(c, spmv.WithFormat(format))
	}
	if err != nil {
		return fmt.Errorf("building %s: %w", format, err)
	}
	if format == "auto" {
		ch := rep.Choice()
		fmt.Printf("autotuner: %s, %.3f of csr's time\n", ch.Spec.Name(), ch.Ratio)
	}
	// O(nnz) structural check — negligible next to the solve, and a
	// corrupt stream aborts here instead of mid-iteration.
	if err := spmv.Verify(m); err != nil {
		return fmt.Errorf("verifying %s: %w", format, err)
	}
	fmt.Printf("format: %s, %.1f%% of CSR\n", m.Name(), 100*spmv.CompressionRatio(m))

	var op spmv.Operator
	var rec *spmv.Recorder
	if threads > 1 {
		e, err := spmv.NewExecutorOpts(m, spmv.ExecOptions{Threads: threads})
		if err != nil {
			return err
		}
		defer e.Close()
		if stats {
			rec = spmv.NewRecorder()
			e.SetCollector(rec)
		}
		op = spmv.NewParallelOperator(e, n)
		fmt.Printf("threads: %d\n", e.Threads())
	} else {
		op, err = spmv.NewOperator(m)
		if err != nil {
			return err
		}
		if stats {
			fmt.Println("stats: telemetry needs the parallel executor; run with -threads > 1")
		}
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)

	var pre spmv.Preconditioner
	if useILU {
		start := time.Now()
		p, err := spmv.NewILU0(c)
		if err != nil {
			return fmt.Errorf("ILU(0): %w", err)
		}
		pre = p
		fmt.Printf("ILU(0): factored in %v (%.1f MB)\n",
			time.Since(start).Round(time.Millisecond), float64(p.FactorBytes())/(1<<20))
	}

	start := time.Now()
	var res spmv.SolveResult
	switch method {
	case "cg":
		if pre != nil {
			res, err = spmv.CGPrec(op, pre, b, x, tol, maxIter)
		} else {
			res, err = spmv.CG(op, b, x, tol, maxIter)
		}
	case "pcg":
		invD, derr := spmv.JacobiInvDiag(c)
		if derr != nil {
			return derr
		}
		res, err = spmv.PCG(op, invD, b, x, tol, maxIter)
	case "gmres":
		if pre != nil {
			pop, finish := spmv.RightPreconditioned(op, pre)
			u := make([]float64, n)
			res, err = spmv.GMRES(pop, b, u, restart, tol, maxIter)
			x = finish(u)
		} else {
			res, err = spmv.GMRES(op, b, x, restart, tol, maxIter)
		}
	case "bicgstab":
		if pre != nil {
			pop, finish := spmv.RightPreconditioned(op, pre)
			u := make([]float64, n)
			res, err = spmv.BiCGSTAB(pop, b, u, tol, maxIter)
			x = finish(u)
		} else {
			res, err = spmv.BiCGSTAB(op, b, x, tol, maxIter)
		}
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("%s: converged=%v matvecs=%d residual=%.3e time=%v\n",
		method, res.Converged, res.Iterations, res.Residual, elapsed.Round(time.Millisecond))
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	fmt.Printf("||x||_2 = %.6g\n", math.Sqrt(norm))
	if rec != nil {
		printStats(rec, m)
	}
	if !res.Converged {
		return fmt.Errorf("did not converge within %d matrix-vector products", maxIter)
	}
	return nil
}

// printStats reports the recorder's view of the solve's SpMV calls:
// how many ran, how fast, what memory bandwidth that implies, and how
// evenly the work spread across workers.
func printStats(rec *spmv.Recorder, m spmv.Format) {
	snap := rec.Snapshot()
	if snap.Runs == 0 {
		fmt.Println("spmv stats: no runs recorded")
		return
	}
	secs := rec.SecsPerRun()
	gbps := 0.0
	if secs > 0 {
		gbps = float64(spmv.BytesPerSpMV(m)) / secs / 1e9
	}
	fmt.Printf("spmv stats: %d runs, %.3g ms/run, %.2f GB/s effective, imbalance mean=%.2f max=%.2f (%d workers, %s partition)\n",
		snap.Runs, secs*1e3, gbps,
		snap.MeanTimeImbalance, snap.MaxTimeImbalance,
		snap.Last.Threads(), snap.Last.Partition)
}
