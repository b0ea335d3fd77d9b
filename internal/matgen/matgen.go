// Package matgen generates synthetic sparse matrices that stand in for
// the paper's 77-matrix University of Florida collection subset (§VI-B).
//
// The paper's evaluation depends on three aggregate matrix properties,
// each of which the generators expose as a parameter:
//
//   - working-set size relative to the cache (controls the M_S / M_L
//     split and therefore memory-boundedness),
//   - the distribution of column deltas within rows (controls which
//     CSR-DU unit types apply and the index compression ratio),
//   - the total-to-unique values ratio "ttu" (controls CSR-VI
//     applicability; the paper uses ttu > 5).
//
// Stencil and FEM-like generators produce the small-delta, low-unique
// value matrices typical of PDE discretizations; the random and
// power-law generators produce the scattered, high-entropy matrices
// where compression is hard.
package matgen

import (
	"math"
	"math/rand"
	"sort"

	"spmv/internal/core"
)

// Values describes how numerical values are drawn.
type Values struct {
	// Unique > 0 draws from a fixed pool of that many distinct values,
	// giving ttu ≈ nnz/Unique. Unique == 0 draws fresh random values
	// (every value distinct with probability ~1).
	Unique int
}

// pool pre-draws the unique value pool.
func (v Values) pool(rng *rand.Rand) []float64 {
	if v.Unique <= 0 {
		return nil
	}
	p := make([]float64, v.Unique)
	seen := make(map[float64]bool, v.Unique)
	for i := range p {
		for {
			x := math.Round(rng.NormFloat64()*1e4) / 1e3
			if !core.IsZero(x) && !seen[x] {
				seen[x] = true
				p[i] = x
				break
			}
		}
	}
	return p
}

type valueSource struct {
	rng  *rand.Rand
	pool []float64
}

func newValueSource(rng *rand.Rand, v Values) *valueSource {
	return &valueSource{rng: rng, pool: v.pool(rng)}
}

func (s *valueSource) next() float64 {
	if s.pool != nil {
		return s.pool[s.rng.Intn(len(s.pool))]
	}
	for {
		if v := s.rng.NormFloat64(); !core.IsZero(v) {
			return v
		}
	}
}

// Stencil2D returns the 5-point Laplacian on an n×n grid: the canonical
// SPD PDE matrix (rows = n², ≤5 nnz/row, values {4, -1} so ttu = nnz/2).
func Stencil2D(n int) *core.COO {
	c := core.NewCOO(n*n, n*n)
	idx := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := idx(i, j)
			c.Add(r, r, 4)
			if i > 0 {
				c.Add(r, idx(i-1, j), -1)
			}
			if i < n-1 {
				c.Add(r, idx(i+1, j), -1)
			}
			if j > 0 {
				c.Add(r, idx(i, j-1), -1)
			}
			if j < n-1 {
				c.Add(r, idx(i, j+1), -1)
			}
		}
	}
	c.Finalize()
	return c
}

// Stencil3D returns the 7-point Laplacian on an n×n×n grid
// (rows = n³, values {6, -1}).
func Stencil3D(n int) *core.COO {
	c := core.NewCOO(n*n*n, n*n*n)
	idx := func(i, j, k int) int { return (i*n+j)*n + k }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				r := idx(i, j, k)
				c.Add(r, r, 6)
				if i > 0 {
					c.Add(r, idx(i-1, j, k), -1)
				}
				if i < n-1 {
					c.Add(r, idx(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(r, idx(i, j-1, k), -1)
				}
				if j < n-1 {
					c.Add(r, idx(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(r, idx(i, j, k-1), -1)
				}
				if k < n-1 {
					c.Add(r, idx(i, j, k+1), -1)
				}
			}
		}
	}
	c.Finalize()
	return c
}

// Stencil2D9 returns the 9-point Laplacian on an n×n grid
// (values {8, -1}, denser rows than Stencil2D).
func Stencil2D9(n int) *core.COO {
	c := core.NewCOO(n*n, n*n)
	idx := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := idx(i, j)
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					ii, jj := i+di, j+dj
					if ii < 0 || ii >= n || jj < 0 || jj >= n {
						continue
					}
					if di == 0 && dj == 0 {
						c.Add(r, r, 8)
					} else {
						c.Add(r, idx(ii, jj), -1)
					}
				}
			}
		}
	}
	c.Finalize()
	return c
}

// Banded returns an n×n matrix whose non-zeros lie within halfBand of
// the diagonal, with about perRow entries per row (diagonal always
// present). Column deltas are small, so CSR-DU compresses well.
func Banded(rng *rand.Rand, n, halfBand, perRow int, vals Values) *core.COO {
	src := newValueSource(rng, vals)
	c := core.NewCOO(n, n)
	used := newRowSet()
	for i := 0; i < n; i++ {
		used.reset()
		used.add(i)
		c.Add(i, i, src.next())
		for k := 1; k < perRow; k++ {
			off := rng.Intn(2*halfBand+1) - halfBand
			j := i + off
			if j < 0 || j >= n || !used.add(j) {
				continue
			}
			c.Add(i, j, src.next())
		}
	}
	c.Finalize()
	return c
}

// rowSet tracks the columns already used in the current row so that
// generators never emit duplicate coordinates: duplicates would be
// summed by Finalize, silently creating values outside the unique pool
// and corrupting the ttu ratio the experiments control for.
type rowSet struct{ m map[int]struct{} }

func newRowSet() *rowSet { return &rowSet{m: make(map[int]struct{}, 32)} }

func (s *rowSet) reset() {
	for k := range s.m {
		delete(s.m, k)
	}
}

// add reports whether j was newly added (false if already present).
func (s *rowSet) add(j int) bool {
	if _, ok := s.m[j]; ok {
		return false
	}
	s.m[j] = struct{}{}
	return true
}

// RandomUniform returns a rows×cols matrix with about perRow uniformly
// scattered non-zeros per row. Column deltas are large (≈cols/perRow),
// the worst case for delta encoding.
func RandomUniform(rng *rand.Rand, rows, cols, perRow int, vals Values) *core.COO {
	src := newValueSource(rng, vals)
	c := core.NewCOO(rows, cols)
	used := newRowSet()
	for i := 0; i < rows; i++ {
		used.reset()
		want := perRow
		if want > cols {
			want = cols
		}
		for tries := 0; want > 0 && tries < 8*perRow+16; tries++ {
			j := rng.Intn(cols)
			if used.add(j) {
				c.Add(i, j, src.next())
				want--
			}
		}
	}
	c.Finalize()
	return c
}

// PowerLaw returns an n×n scale-free adjacency-like matrix: row i has
// degree ≈ max(1, scale/(i+1)^alpha), columns drawn uniformly. A few
// rows are very long and most are short — the matrix class for which
// the paper's per-row unit limitation and loop overheads matter.
func PowerLaw(rng *rand.Rand, n int, avgDeg float64, alpha float64, vals Values) *core.COO {
	// Normalize so the mean degree is avgDeg.
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
	}
	scale := avgDeg * float64(n) / sum
	src := newValueSource(rng, vals)
	c := core.NewCOO(n, n)
	used := newRowSet()
	for i := 0; i < n; i++ {
		deg := int(scale * math.Pow(float64(i+1), -alpha))
		if deg < 1 {
			deg = 1
		}
		if deg > n {
			deg = n
		}
		used.reset()
		for tries := 0; deg > 0 && tries < 8*deg+16; tries++ {
			j := rng.Intn(n)
			if used.add(j) {
				c.Add(i, j, src.next())
				deg--
			}
		}
	}
	c.Finalize()
	return c
}

// SkewedRows returns an n×n matrix in which the designated row holds
// heavyFrac of the total non-zeros (as nearly as the n-column cap
// allows) and every other row carries about perRow uniformly scattered
// entries — the isolated row-length-skew pathology. Row-granular
// partitioning cannot balance it (the heavy row is atomic, so its
// owner's load is at least heavyFrac of the matrix), which makes it the
// reference input for the non-zero-split scheduler.
func SkewedRows(rng *rand.Rand, n, perRow, heavyRow int, heavyFrac float64, vals Values) *core.COO {
	if heavyRow < 0 || heavyRow >= n {
		panic(core.Usagef("matgen: SkewedRows heavy row %d outside [0,%d)", heavyRow, n))
	}
	if heavyFrac <= 0 || heavyFrac >= 1 {
		panic(core.Usagef("matgen: SkewedRows heavyFrac %v outside (0,1)", heavyFrac))
	}
	light := (n - 1) * perRow
	deg := int(heavyFrac/(1-heavyFrac)*float64(light) + 0.5)
	if deg > n {
		deg = n
	}
	if deg < 1 {
		deg = 1
	}
	src := newValueSource(rng, vals)
	c := core.NewCOO(n, n)
	used := newRowSet()
	for i := 0; i < n; i++ {
		if i == heavyRow {
			// The heavy row's degree may approach n; a permutation
			// avoids rejection-sampling a nearly-full row.
			for _, j := range rng.Perm(n)[:deg] {
				c.Add(i, j, src.next())
			}
			continue
		}
		want := perRow
		if want > n {
			want = n
		}
		used.reset()
		for tries := 0; want > 0 && tries < 8*perRow+16; tries++ {
			j := rng.Intn(n)
			if used.add(j) {
				c.Add(i, j, src.next())
				want--
			}
		}
	}
	c.Finalize()
	return c
}

// RMAT returns a 2^scale × 2^scale recursive-matrix (R-MAT) graph
// adjacency with about avgDeg non-zeros per row: the standard synthetic
// web/social-graph model (Graph500). Probabilities (a, b, c) steer each
// edge into the (top-left, top-right, bottom-left) quadrant
// recursively; d = 1-a-b-c. Defaults of (0.57, 0.19, 0.19) give the
// usual heavy skew. Duplicate edges are dropped, and every row keeps at
// least one entry so row partitioning stays meaningful.
func RMAT(rng *rand.Rand, scale int, avgDeg float64, a, b, c float64, vals Values) *core.COO {
	if a <= 0 && b <= 0 && c <= 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	n := 1 << scale
	src := newValueSource(rng, vals)
	edges := int(float64(n) * avgDeg)
	seen := make(map[[2]int32]struct{}, edges)
	out := core.NewCOO(n, n)
	for e := 0; e < edges; e++ {
		i, j := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				j |= 1 << bit
			case r < a+b+c: // bottom-left
				i |= 1 << bit
			default: // bottom-right
				i |= 1 << bit
				j |= 1 << bit
			}
		}
		key := [2]int32{int32(i), int32(j)}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out.Add(i, j, src.next())
	}
	// Guarantee non-empty rows (isolated vertices get a self-loop).
	rowSeen := make([]bool, n)
	for k := range seen {
		rowSeen[k[0]] = true
	}
	for i := 0; i < n; i++ {
		if !rowSeen[i] {
			out.Add(i, i, src.next())
		}
	}
	out.Finalize()
	return out
}

// BlockDiag returns a matrix of nblocks dense bsize×bsize blocks along
// the diagonal: unit-stride column deltas, ideal for CSR-DU's u8 and
// RLE units.
func BlockDiag(rng *rand.Rand, nblocks, bsize int, vals Values) *core.COO {
	n := nblocks * bsize
	src := newValueSource(rng, vals)
	c := core.NewCOO(n, n)
	for b := 0; b < nblocks; b++ {
		for i := 0; i < bsize; i++ {
			for j := 0; j < bsize; j++ {
				c.Add(b*bsize+i, b*bsize+j, src.next())
			}
		}
	}
	c.Finalize()
	return c
}

// FEMLike returns an n×n symmetric-pattern matrix resembling an
// unstructured finite-element discretization: each row couples to
// ~perRow neighbours clustered around the diagonal with an occasional
// long-range entry, mixing small and large column deltas.
func FEMLike(rng *rand.Rand, n, perRow int, vals Values) *core.COO {
	src := newValueSource(rng, vals)
	// Collect the pattern in a set first: symmetric insertion would
	// otherwise produce duplicates whose folded sums fall outside the
	// unique value pool.
	pattern := make(map[[2]int32]struct{}, n*perRow)
	spread := n/64 + 2
	for i := 0; i < n; i++ {
		pattern[[2]int32{int32(i), int32(i)}] = struct{}{}
		for k := 1; k < perRow; k++ {
			var j int
			if rng.Float64() < 0.9 {
				j = i + int(rng.NormFloat64()*float64(spread))
			} else {
				j = rng.Intn(n)
			}
			if j < 0 || j >= n {
				continue
			}
			pattern[[2]int32{int32(i), int32(j)}] = struct{}{}
			pattern[[2]int32{int32(j), int32(i)}] = struct{}{}
		}
	}
	// Iterate the pattern in sorted order so values are deterministic.
	keys := make([][2]int32, 0, len(pattern))
	for p := range pattern {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	c := core.NewCOO(n, n)
	for _, p := range keys {
		c.Add(int(p[0]), int(p[1]), src.next())
	}
	c.Finalize()
	return c
}

// Quantize returns a copy of c whose values are snapped to a pool of at
// most unique distinct values (round-robin over value rank), raising the
// ttu ratio without changing the sparsity pattern. Used to derive
// CSR-VI-friendly variants of any matrix.
func Quantize(c *core.COO, rng *rand.Rand, unique int) *core.COO {
	out := c.Clone()
	out.Finalize()
	pool := Values{Unique: unique}.pool(rng)
	src := rand.New(rand.NewSource(rng.Int63()))
	q := core.NewCOO(out.Rows(), out.Cols())
	for k := 0; k < out.Len(); k++ {
		i, j, _ := out.At(k)
		q.Add(i, j, pool[src.Intn(len(pool))])
	}
	q.Finalize()
	return q
}

// Symmetrize returns (A + A^T)/2, a numerically symmetric matrix with
// A's sparsity pattern union its transpose. Used to derive inputs for
// the symmetric storage format.
func Symmetrize(c *core.COO) *core.COO {
	c.Finalize()
	t := c.Transpose()
	out := core.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		out.Add(i, j, v/2)
	}
	for k := 0; k < t.Len(); k++ {
		i, j, v := t.At(k)
		out.Add(i, j, v/2)
	}
	out.Finalize()
	return out
}

// TTU returns the total-to-unique values ratio of a finalized COO
// (paper §VI-E): nnz divided by the number of distinct stored values.
func TTU(c *core.COO) float64 {
	if c.Len() == 0 {
		return 0
	}
	seen := make(map[float64]struct{})
	for k := 0; k < c.Len(); k++ {
		_, _, v := c.At(k)
		seen[v] = struct{}{}
	}
	return float64(c.Len()) / float64(len(seen))
}
