package formats

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestEveryRegisteredFormatBuildsOnStencil(t *testing.T) {
	// The stencil is symmetric, banded, low-unique and uniform-row:
	// every registered format can represent it.
	c := matgen.Stencil2D(10)
	x := testmat.RandVec(rand.New(rand.NewSource(1)), c.Cols())
	ref, err := Build("csr", c)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, c.Rows())
	ref.SpMV(want, x)
	for _, name := range Names() {
		f, err := Build(name, c)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := make([]float64, c.Rows())
		f.SpMV(got, x)
		testmat.AssertClose(t, name, got, want, 1e-10)
		if f.NNZ() != c.Len() {
			t.Errorf("%s: NNZ %d != %d", name, f.NNZ(), c.Len())
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	c := matgen.Stencil2D(3)
	_, err := Build("nope", c)
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	// The error must be the typed usage sentinel and actionable: it
	// lists every valid name so a CLI user can fix the flag without
	// reading source.
	if !errors.Is(err, core.ErrUsage) {
		t.Errorf("error %v does not wrap core.ErrUsage", err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention valid name %q", err, name)
		}
	}
}

func TestBuildOptsDUOptionsApply(t *testing.T) {
	// Wide matrix with uniform-random columns: per-row deltas span u8
	// through u32, so the MinSwitch widen-vs-split policy has work to do.
	rng := rand.New(rand.NewSource(4))
	c := matgen.RandomUniform(rng, 400, 1<<18, 16, matgen.Values{})

	// MinSwitch=1 produces a different (more fragmented) unit stream
	// than the default: proof the options reach the encoder.
	def, err := BuildOpts("csr-du", c, csrdu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := BuildOpts("csr-du", c, csrdu.Options{MinSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.(*csrdu.Matrix).Stats().Units <= def.(*csrdu.Matrix).Stats().Units {
		t.Errorf("MinSwitch=1 units %d not greater than default %d",
			tiny.(*csrdu.Matrix).Stats().Units, def.(*csrdu.Matrix).Stats().Units)
	}

	// RLE is an option of csr-du, not a registry name; the matrix it
	// builds keeps the name its matfiles are tagged with.
	rle, err := BuildOpts("csr-du", c, csrdu.Options{RLE: true})
	if err != nil {
		t.Fatal(err)
	}
	if rle.(*csrdu.Matrix).Stats().Units == 0 || rle.Name() != "csr-du-rle" {
		t.Errorf("RLE build: %d units, name %q", rle.(*csrdu.Matrix).Stats().Units, rle.Name())
	}
	if _, err := BuildOpts("csr-du-rle", c, csrdu.Options{}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("removed name csr-du-rle: got %v, want ErrUsage", err)
	}
}
