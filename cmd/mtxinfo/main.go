// Command mtxinfo analyzes Matrix Market files through the lens of the
// paper: working-set size and class (M_S/M_L), total-to-unique values
// ratio, CSR-VI applicability and the value codec the encoder chooses,
// per-format sizes and compression ratios, and the CSR-DU unit mix.
//
// Usage:
//
//	mtxinfo [-verify] [-profile FORMAT] [-features]
//	        [-roofline FORMAT] [-roofdir benchdata]
//	        file.mtx [file2.mtx ...]
//
// With -roofline FORMAT each matrix gets a bandwidth-floor prediction
// for the named format against the host's roofline model (the
// benchdata/ROOF_<host>.json probe archive when present, the analytic
// Clovertown peak otherwise): the §II-B predicted bytes per SpMV for
// CSR and for FORMAT, the ceiling GB/s the prediction divides by, the
// predicted floor seconds per iteration at that ceiling, and the
// format's predicted traffic (and therefore time) ratio vs CSR.
//
// With -profile FORMAT (e.g. -profile csr-du) each matrix additionally
// gets the named format's full structural profile: the per-stream byte
// split of the traffic model, the CSR-DU ctl-unit histograms and the
// CSR-VI dictionary statistics where applicable.
//
// With -features the human-readable report is replaced by the
// autotuner's structural feature vector, one JSON object per input file
// on stdout ({"path": ..., "features": {...}}): row distribution and
// skew, column-delta widths, unique values and float32 losslessness,
// bandwidth before/after RCM, symmetry, diagonal and block structure,
// and the simulated CSR-DU control-stream sizes — the exact inputs the
// format autotuner ranks candidates from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spmv"
	"spmv/internal/autotune"
	"spmv/internal/bench"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/memsim"
	"spmv/internal/obs"
	"spmv/internal/prof"
	"spmv/internal/roofline"
)

func main() {
	verify := flag.Bool("verify", false, "structurally verify every format built from the matrix; any failure exits non-zero")
	profileFmt := flag.String("profile", "", "print the named format's structural profile (e.g. csr-du)")
	features := flag.Bool("features", false, "emit the autotuner's structural feature vector as JSON instead of the report")
	roofFmt := flag.String("roofline", "", "predict the named format's bandwidth floor against the host roofline (e.g. -roofline csr-du)")
	roofDir := flag.String("roofdir", "benchdata", "directory holding the per-host ROOF_<host>.json probe archives")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mtxinfo [-verify] [-profile FORMAT] [-features] [-roofline FORMAT] [-roofdir DIR] file.mtx [file2.mtx ...]")
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
			// No probe archive for this host: the analytic Clovertown peak
			// keeps the prediction well-defined, and the output names the
			// source so nobody mistakes it for a measurement.
			m = roofline.Analytic(memsim.Clovertown())
		}
		roofModel = m
	}
	status := 0
	for _, path := range flag.Args() {
		var err error
		if *features {
			err = reportFeatures(path)
		} else {
			err = report(path, *verify, *profileFmt, *roofFmt, roofModel)
		}
		if err != nil {
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
func reportRoofline(c *spmv.COO, formatName string, m *roofline.Model) error {
	f, err := spmv.BuildFormat(formatName, c)
	if err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	base, err := spmv.NewCSR(c)
	if err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	th := m.MaxThreads()
	ceil := m.CeilingGBps(th)
	if ceil <= 0 {
		return fmt.Errorf("roofline: model has no bandwidth ceiling")
	}
	src := m.Source
	if m.Host != "" {
		src += " @" + m.Host
	}
	thLabel := "any threads"
	if th > 0 {
		thLabel = fmt.Sprintf("t%d", th)
	}
	fmt.Printf("  roofline     model %s, ceiling %.3f GB/s (%s)\n", src, ceil, thLabel)
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

// reportFeatures emits one JSON document with the matrix's autotuner
// feature vector.
func reportFeatures(path string) (err error) {
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Path     string            `json:"path"`
		Features autotune.Features `json:"features"`
	}{Path: path, Features: autotune.Extract(c)})
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
	vi, err := spmv.NewCSRVI(c)
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
		ttu, ttu > 5, csrvi.CodecName(vi.IndexWidth()))

	a := spmv.Analyze(c)
	fmt.Printf("  structure    bandwidth %d, %d diagonals, symmetric %v, row nnz avg %.1f max %d\n",
		a.Bandwidth, a.Diagonals, a.Symmetric, a.AvgRowNNZ, a.MaxRowNNZ)
	fmt.Printf("  col deltas   u8 %.0f%%  u16 %.0f%%  u32 %.0f%%  (delta==1: %.0f%%)\n",
		100*a.DeltaFrac[0], 100*a.DeltaFrac[1], 100*a.DeltaFrac[2], 100*a.DeltaEq1)

	base, err := spmv.NewCSR(c)
	if err != nil {
		return err
	}
	hdr := ""
	if verify {
		hdr = "   verify"
	}
	fmt.Printf("  %-10s %12s %9s%s\n", "format", "bytes", "vs CSR", hdr)
	var badFormats []string
	for _, name := range spmv.FormatNames() {
		f, err := spmv.BuildFormat(name, c)
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
			100*float64(f.SizeBytes())/float64(base.SizeBytes()), check)
	}
	if len(badFormats) > 0 {
		return fmt.Errorf("verification failed for %v", badFormats)
	}

	du, err := spmv.NewCSRDU(c)
	if err == nil {
		st := du.Stats()
		fmt.Printf("  csr-du units %d (avg size %.1f): u8=%d u16=%d u32=%d u64=%d\n",
			st.Units, st.AvgSize,
			st.PerClass[csrdu.ClassU8], st.PerClass[csrdu.ClassU16],
			st.PerClass[csrdu.ClassU32], st.PerClass[csrdu.ClassU64])
		if nonEmpty := a.Rows - a.EmptyRows; nonEmpty > 0 {
			fmt.Printf("  csr-du REP units %d cover %d rows: %.1f%% of rows on the fixed-offset path\n",
				st.RepUnits, st.RepRows, 100*float64(st.RepRows)/float64(nonEmpty))
		}
	}
	fmt.Println("  recommended formats (predicted size vs CSR):")
	for i, r := range a.Recommend() {
		if i == 4 {
			break
		}
		fmt.Printf("    %d. %-9s %5.1f%%  %s\n", i+1, r.Format, 100*r.Ratio, r.Reason)
	}
	if roofFmt != "" {
		if err := reportRoofline(c, roofFmt, roofModel); err != nil {
			return err
		}
	}
	if profileFmt != "" {
		pf, err := spmv.BuildFormat(profileFmt, c)
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
