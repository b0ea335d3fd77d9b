// Command mtxinfo analyzes Matrix Market files through the lens of the
// paper: working-set size and class (M_S/M_L), total-to-unique values
// ratio, CSR-VI applicability and the value codec the encoder chooses,
// per-format sizes and compression ratios, the CSR-DU unit mix, and
// what the autotuner measured on this host: per candidate its bytes,
// ns/nnz and time ratio to CSR, the chosen format and each skip
// reason.
//
// Usage:
//
//	mtxinfo [-verify] [-profile FORMAT]
//	        [-roofline FORMAT] [-roofdir benchdata]
//	        file.mtx [file2.mtx ...]
//
// With -roofline FORMAT each matrix gets a bandwidth-floor prediction
// for the named format against the host's measured roofline, the
// -roofdir/ROOF_<host>.json probe archive (spmvbench -roofprobe writes
// it; without it -roofline is an error): the §II-B predicted bytes per
// SpMV for CSR and for FORMAT, the ceiling GB/s the prediction divides
// by, the predicted floor seconds per iteration at that ceiling, and
// the format's predicted traffic (and therefore time) ratio vs CSR.
//
// With -profile FORMAT (e.g. -profile csr-du) each matrix additionally
// gets the named format's full structural profile: the per-stream byte
// split of the traffic model, the CSR-DU ctl-unit histograms and the
// CSR-VI dictionary statistics where applicable.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"spmv"
	"spmv/internal/bench"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/prof"
	"spmv/internal/roofline"
)

func main() {
	verify := flag.Bool("verify", false, "structurally verify every format built from the matrix; any failure exits non-zero")
	profileFmt := flag.String("profile", "", "print the named format's structural profile (e.g. csr-du)")
	roofFmt := flag.String("roofline", "", "predict the named format's bandwidth floor against the host roofline (e.g. -roofline csr-du)")
	roofDir := flag.String("roofdir", "benchdata", "directory holding the per-host ROOF_<host>.json probe archives")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mtxinfo [-verify] [-profile FORMAT] [-roofline FORMAT] [-roofdir DIR] file.mtx [file2.mtx ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var roofModel *roofline.Model
	if *roofFmt != "" {
		m, err := roofline.Load(*roofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtxinfo: -roofline needs this host's probe archive (spmvbench -roofprobe): %v\n", err)
			os.Exit(1)
		}
		roofModel = m
	}
	status := 0
	for _, path := range flag.Args() {
		if err := report(path, *verify, *profileFmt, *roofFmt, roofModel); err != nil {
			fmt.Fprintf(os.Stderr, "mtxinfo: %s: %v\n", path, err)
			status = 1
		}
	}
	os.Exit(status)
}

// reportRoofline prints the bandwidth-floor prediction for one format:
// at the roofline ceiling, an SpMV can never run faster than predicted
// bytes divided by ceiling bandwidth — the floor a perfectly
// memory-bound kernel would hit. The CSR baseline makes the comparison
// the paper's: compression wins exactly its traffic ratio.
func reportRoofline(build func(string) (spmv.Format, error), formatName string, m *roofline.Model) error {
	f, err := build(formatName)
	if err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	base, err := build("csr")
	if err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	// A probe archive has a positive ceiling at every thread count it
	// lists (roofline.FromFile).
	th := m.MaxThreads()
	ceil := m.CeilingGBps(th)
	fmt.Printf("  roofline     model %s @%s, ceiling %.3f GB/s (t%d)\n", m.Source, m.Host, ceil, th)
	fb := obs.BytesPerSpMV(f)
	bb := obs.BytesPerSpMV(base)
	floor := func(bytes int64) float64 { return float64(bytes) / (ceil * 1e9) }
	fmt.Printf("    %-10s %12d bytes/SpMV   floor %.3e s/iter\n", base.Name(), bb, floor(bb))
	fmt.Printf("    %-10s %12d bytes/SpMV   floor %.3e s/iter\n", f.Name(), fb, floor(fb))
	// At CSR's floor time the compressed format streams only its own
	// bytes: its %-of-roofline is the traffic ratio. Anything above it
	// means the run beat CSR's floor; anything below means overhead ate
	// the compression win.
	fmt.Printf("    predicted %%roof at CSR-floor speed: %.1f%% (traffic ratio vs CSR)\n",
		100*float64(fb)/float64(bb))
	return nil
}

func report(path string, verify bool, profileFmt, roofFmt string, roofModel *roofline.Model) (err error) {
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
	ws := spmv.WorkingSet(c)
	ttu := matgen.TTU(c)
	build := builder(c)
	vi, err := build("csr-vi")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", path)
	fmt.Printf("  shape        %d x %d, %d non-zeros\n", c.Rows(), c.Cols(), c.Len())
	fmt.Printf("  working set  %.2f MB  (class M_%s; paper admits ws >= 3MB)\n",
		float64(ws)/(1<<20), bench.Classify(ws))
	// The codec is the encoder's byte rule: plain where no dictionary is
	// smaller than the values, and then csr-vi has CSR's size.
	fmt.Printf("  ttu          %.2f  (CSR-VI applicable: %v, threshold > 5; value codec %s)\n",
		ttu, ttu > 5, csrvi.CodecName(vi.(*spmv.CSRVI).IndexWidth()))

	var tune spmv.TuneReport
	if _, err := spmv.Build(c, spmv.WithTuneReport(&tune)); err != nil {
		return err
	}
	nonEmpty, maxRow := 0, 0
	for _, n := range c.RowCounts() {
		if n > 0 {
			nonEmpty++
		}
		maxRow = max(maxRow, n)
	}
	symmetric := false // whether sym-csr built
	for _, cand := range tune.Candidates {
		symmetric = symmetric || cand.Spec.Name() == "sym-csr" && cand.Reason == ""
	}
	fmt.Printf("  structure    bandwidth %d, symmetric %v, row nnz avg %.1f max %d\n",
		spmv.Bandwidth(c), symmetric, float64(c.Len())/float64(c.Rows()), maxRow)

	csrBytes := tune.Candidates[0].Bytes // the tuner builds CSR first
	hdr := ""
	if verify {
		hdr = "   verify"
	}
	fmt.Printf("  %-10s %12s %9s%s\n", "format", "bytes", "vs CSR", hdr)
	var badFormats []string
	for _, name := range spmv.FormatNames() {
		f, err := build(name)
		if err != nil {
			fmt.Printf("  %-10s %12s (%v)\n", name, "-", err)
			continue
		}
		check := ""
		if verify {
			if verr := spmv.Verify(f); verr != nil {
				check = fmt.Sprintf("   FAIL: %v", verr)
				badFormats = append(badFormats, name)
			} else {
				check = "   ok"
			}
		}
		fmt.Printf("  %-10s %12d %8.1f%%%s\n", name, f.SizeBytes(),
			100*float64(f.SizeBytes())/float64(csrBytes), check)
	}
	if len(badFormats) > 0 {
		return fmt.Errorf("verification failed for %v", badFormats)
	}

	if du, err := build("csr-du"); err == nil {
		st := du.(*spmv.CSRDU).Stats()
		fmt.Printf("  csr-du units %d (avg size %.1f): u8=%d u16=%d u32=%d u64=%d\n",
			st.Units, st.AvgSize,
			st.PerClass[csrdu.ClassU8], st.PerClass[csrdu.ClassU16],
			st.PerClass[csrdu.ClassU32], st.PerClass[csrdu.ClassU64])
		if nonEmpty > 0 {
			fmt.Printf("  csr-du REP units %d cover %d rows: %.1f%% of rows on the fixed-offset path\n",
				st.RepUnits, st.RepRows, 100*float64(st.RepRows)/float64(nonEmpty))
		}
	}
	printTune(&tune, csrBytes)
	if roofFmt != "" {
		if err := reportRoofline(build, roofFmt, roofModel); err != nil {
			return err
		}
	}
	if profileFmt != "" {
		pf, err := build(profileFmt)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		fmt.Println()
		if err := prof.New(pf).Fprint(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// builder returns a function that builds the named format from c once
// and hands out that build, or its error, on every later call: the
// report's lines share one build per format.
func builder(c *spmv.COO) func(string) (spmv.Format, error) {
	type result struct {
		f   spmv.Format
		err error
	}
	built := map[string]result{}
	return func(name string) (spmv.Format, error) {
		r, ok := built[name]
		if !ok {
			r.f, r.err = spmv.Build(c, spmv.WithFormat(name))
			built[name] = r
		}
		return r.f, r.err
	}
}

// printTune prints what the autotuner measured, one line per candidate
// in the order it built them, CSR first: bytes vs CSR, the median
// ns/nnz and the median time ratio to CSR, or why it was not timed.
func printTune(rep *spmv.TuneReport, csrBytes int64) {
	fmt.Printf("  tuned at %d threads (timed on this host): chose %s\n",
		runtime.GOMAXPROCS(0), rep.Chosen.Name())
	for _, c := range rep.Candidates {
		if c.Reason != "" {
			fmt.Printf("    %-10s %s\n", c.Spec.Name(), c.Reason)
			continue
		}
		fmt.Printf("    %-10s %6.1f%% bytes  %7.3f ns/nnz  time %.2fx CSR\n", c.Spec.Name(),
			100*float64(c.Bytes)/float64(csrBytes), c.NsPerNNZ, c.Ratio)
	}
}
