package reorder

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// shuffled returns a banded matrix whose rows/cols have been randomly
// permuted, destroying its bandedness.
func shuffled(rng *rand.Rand, n int) *core.COO {
	banded := matgen.Symmetrize(matgen.Banded(rng, n, 6, 5, matgen.Values{}))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	out, err := Permute(banded, perm)
	if err != nil {
		panic(err)
	}
	return out
}

func TestRCMRecoversBandedness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	mess := shuffled(rng, n)
	bwBefore := Bandwidth(mess)
	perm, err := RCM(mess)
	if err != nil {
		t.Fatal(err)
	}
	tidy, err := Permute(mess, perm)
	if err != nil {
		t.Fatal(err)
	}
	bwAfter := Bandwidth(tidy)
	if bwAfter >= bwBefore/4 {
		t.Errorf("bandwidth %d -> %d: RCM should recover near-banded structure", bwBefore, bwAfter)
	}
	if Profile(tidy) >= Profile(mess) {
		t.Errorf("profile did not shrink: %d -> %d", Profile(mess), Profile(tidy))
	}
}

func TestRCMPermutationIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.Symmetrize(matgen.FEMLike(rng, 300, 4, matgen.Values{}))
	perm, err := RCM(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != c.Rows() {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, c.Rows())
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate entry %d", p)
		}
		seen[p] = true
	}
}

func TestPermutedSpMVConsistent(t *testing.T) {
	// y = A x  ==>  P y = (P A P^T)(P x): solving in permuted space and
	// unpermuting must give the original result.
	rng := rand.New(rand.NewSource(3))
	c := matgen.Symmetrize(matgen.FEMLike(rng, 200, 5, matgen.Values{}))
	perm, _ := RCM(c)
	pc, _ := Permute(c, perm)

	x := testmat.RandVec(rng, c.Cols())
	want := make([]float64, c.Rows())
	ref, _ := csr.FromCOO(c)
	ref.SpMV(want, x)

	px := PermuteVec(x, perm)
	py := make([]float64, c.Rows())
	pm, _ := csr.FromCOO(pc)
	pm.SpMV(py, px)
	got := UnpermuteVec(py, perm)
	testmat.AssertClose(t, "permuted SpMV", got, want, 1e-10)
}

func TestRCMImprovesCSRDUCompression(t *testing.T) {
	// The synergy claim: smaller column deltas after RCM → smaller ctl.
	rng := rand.New(rand.NewSource(4))
	mess := shuffled(rng, 2000)
	perm, _ := RCM(mess)
	tidy, _ := Permute(mess, perm)
	before, _ := csrdu.FromCOO(mess)
	after, _ := csrdu.FromCOO(tidy)
	if after.SizeBytes() >= before.SizeBytes() {
		t.Errorf("CSR-DU size %d -> %d: RCM should shrink the ctl stream",
			before.SizeBytes(), after.SizeBytes())
	}
	st1, st2 := before.Stats(), after.Stats()
	if st2.PerClass[csrdu.ClassU8] <= st1.PerClass[csrdu.ClassU8] {
		t.Errorf("u8 units %d -> %d: expected more narrow units after RCM",
			st1.PerClass[csrdu.ClassU8], st2.PerClass[csrdu.ClassU8])
	}
}

func TestDisconnectedComponents(t *testing.T) {
	c := core.NewCOO(6, 6)
	// Two disjoint triangles plus an isolated node.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		c.Add(e[0], e[1], 1)
		c.Add(e[1], e[0], 1)
	}
	c.Finalize()
	perm, err := RCM(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != 6 {
		t.Fatalf("perm covers %d of 6 nodes", len(perm))
	}
}

func TestPermuteValidation(t *testing.T) {
	c := matgen.Stencil2D(3)
	if _, err := Permute(c, []int32{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	bad := make([]int32, 9)
	for i := range bad {
		bad[i] = 0 // duplicate
	}
	if _, err := Permute(c, bad); err == nil {
		t.Error("duplicate permutation accepted")
	}
	r := core.NewCOO(2, 3)
	r.Finalize()
	if _, err := RCM(r); err == nil {
		t.Error("rectangular accepted")
	}
}

func TestBandwidthAndProfileBasics(t *testing.T) {
	c := core.NewCOO(4, 4)
	c.Add(0, 0, 1)
	c.Add(0, 3, 1)
	c.Add(2, 1, 1)
	c.Finalize()
	if bw := Bandwidth(c); bw != 3 {
		t.Errorf("Bandwidth = %d, want 3", bw)
	}
	if p := Profile(c); p != 3 {
		t.Errorf("Profile = %d, want 3", p)
	}
	empty := core.NewCOO(2, 2)
	empty.Finalize()
	if Bandwidth(empty) != 0 || Profile(empty) != 0 {
		t.Error("empty matrix bandwidth/profile not 0")
	}
}

// TestPermuteMatchesAddAndFinalize: Permute's counting sort gives the
// COO that adding the relabelled triplets one by one and finalizing
// gives, bit for bit, on every square corpus matrix.
func TestPermuteMatchesAddAndFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range testmat.Corpus() {
		c := tc.COO
		n := c.Rows()
		if n != c.Cols() {
			continue
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		inv := make([]int, n)
		for newIdx, old := range perm {
			inv[old] = newIdx
		}
		want := core.NewCOO(n, n)
		for k := 0; k < c.Len(); k++ {
			i, j, v := c.At(k)
			want.Add(inv[i], inv[j], v)
		}
		want.Finalize()
		got, err := Permute(c, perm)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: Permute differs from Add + Finalize", tc.Name)
		}
	}
}
