// Command mtxconvert converts between Matrix Market text files and the
// library's binary container (encode once, load compressed), choosing
// the storage format of the binary side by registry name: csr, csr-du,
// csr-du-rle (csr-du with RLE units), csr-vi, csr-du-vi or dcsr. A name
// the container cannot hold (csr32, sym-csr) is an error.
//
// Usage:
//
//	mtxconvert -to csr-du matrix.mtx matrix.spmv     # text -> binary
//	mtxconvert -from matrix.spmv matrix.mtx          # binary -> text
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"spmv"
)

func main() {
	to := flag.String("to", "csr-du", "target format for binary output: csr|csr-du|csr-du-rle|csr-vi|csr-du-vi|dcsr")
	from := flag.Bool("from", false, "convert binary container back to Matrix Market")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mtxconvert [-to FORMAT] in.mtx out.spmv")
		fmt.Fprintln(os.Stderr, "       mtxconvert -from in.spmv out.mtx")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	inPath, outPath := flag.Arg(0), flag.Arg(1)
	if err := run(inPath, outPath, *to, *from, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mtxconvert:", err)
		os.Exit(1)
	}
}

// run converts inPath into outPath and reports a binary write's size
// on log. It reads and encodes everything before it creates outPath,
// so a bad input or an unknown -to leaves an existing output file as
// it was.
func run(inPath, outPath, format string, fromBinary bool, log io.Writer) error {
	var buf bytes.Buffer
	var note string
	if fromBinary {
		f, err := readFile(inPath, spmv.ReadMatrix)
		if err != nil {
			return err
		}
		c, err := toCOO(f)
		if err != nil {
			return err
		}
		if err := spmv.WriteMatrixMarket(&buf, c); err != nil {
			return err
		}
	} else {
		c, err := readFile(inPath, spmv.ReadMatrixMarket)
		if err != nil {
			return err
		}
		f, err := build(c, format)
		if err != nil {
			return err
		}
		if err := spmv.WriteMatrix(&buf, f); err != nil {
			return err
		}
		note = fmt.Sprintf("mtxconvert: %s: %d nnz as %s, %.1f%% of CSR\n",
			outPath, f.NNZ(), f.Name(), 100*spmv.CompressionRatio(f))
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o666); err != nil {
		return err
	}
	_, err := fmt.Fprint(log, note)
	return err
}

// build encodes c as the named registry format; "csr-du-rle" is csr-du
// with RLE units.
func build(c *spmv.COO, name string) (spmv.Format, error) {
	if name == "csr-du-rle" {
		return spmv.Build(c, spmv.WithFormat("csr-du"), spmv.WithDUOptions(spmv.DUOptions{RLE: true}))
	}
	return spmv.Build(c, spmv.WithFormat(name))
}

// readFile opens path and decodes it with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (v T, err error) {
	in, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer func() {
		if cerr := in.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return read(in)
}

// toCOO decodes a container format back to triplets via its ForEach.
func toCOO(f spmv.Format) (*spmv.COO, error) {
	type forEacher interface {
		ForEach(func(i, j int, v float64))
	}
	fe, ok := f.(forEacher)
	if !ok {
		return nil, fmt.Errorf("format %s cannot be decoded to triplets", f.Name())
	}
	c := spmv.NewCOO(f.Rows(), f.Cols())
	fe.ForEach(func(i, j int, v float64) { c.Add(i, j, v) })
	c.Finalize()
	return c, nil
}
