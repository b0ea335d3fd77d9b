package formats

import (
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

func TestBuildSpecMatchesBuildOpts(t *testing.T) {
	c := matgen.Stencil2D(20)
	for _, name := range Names() {
		a, errA := BuildOpts(name, c, csrdu.Options{})
		b, errB := BuildSpec(c, Spec{Format: name, Partition: "nnz", Steal: false})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: BuildOpts err=%v BuildSpec err=%v", name, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.SizeBytes() != b.SizeBytes() || a.Name() != b.Name() {
			t.Errorf("%s: BuildSpec diverged from BuildOpts (%d vs %d bytes)",
				name, b.SizeBytes(), a.SizeBytes())
		}
	}
}

func TestBuildSpecDefaultsToCSR(t *testing.T) {
	c := matgen.Stencil2D(10)
	f, err := BuildSpec(c, Spec{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if f.Name() != "csr" {
		t.Errorf("zero Spec built %q, want csr", f.Name())
	}
}

func TestBuildSpecUnknownIsUsageError(t *testing.T) {
	c := matgen.Stencil2D(10)
	_, err := BuildSpec(c, Spec{Format: "no-such-format"})
	if !errors.Is(err, core.ErrUsage) {
		t.Fatalf("unknown spec: got %v, want ErrUsage", err)
	}
	for _, name := range Names() {
		if !containsSub(err.Error(), name) {
			t.Errorf("error should list %q: %s", name, err)
		}
	}
}

func TestBuildSpecCarriesDUOptions(t *testing.T) {
	// Dense 16-wide blocks produce unit-stride runs long enough for
	// RLE units, so the RLE flag visibly shrinks the control stream.
	s := matgen.BlockDiag(rand.New(rand.NewSource(1)), 8, 16, matgen.Values{})
	plain, err := BuildSpec(s, Spec{Format: "csr-du"})
	if err != nil {
		t.Fatalf("%v", err)
	}
	rle, err := BuildSpec(s, Spec{Format: "csr-du", DU: csrdu.Options{RLE: true}})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rle.SizeBytes() >= plain.SizeBytes() {
		t.Errorf("DU options did not reach the encoder: rle %d vs plain %d bytes",
			rle.SizeBytes(), plain.SizeBytes())
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
