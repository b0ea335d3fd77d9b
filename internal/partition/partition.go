// Package partition implements the static load-balancing schemes of the
// paper's §II-C: row partitioning balanced by non-zero count (the scheme
// used for all of the paper's experiments), plus the even and
// prefix-weight splitters that the nonzero-split and symmetric chunks
// build on.
package partition

import (
	"sort"
	"spmv/internal/core"
)

// Even returns parts+1 boundaries splitting [0, n) into parts nearly
// equal contiguous ranges. Boundaries are non-decreasing; ranges may be
// empty when parts > n.
func Even(n, parts int) []int {
	if parts <= 0 {
		panic(core.Usagef("partition: Even with parts=%d", parts))
	}
	if n < 0 {
		panic(core.Usagef("partition: Even with n=%d", n))
	}
	b := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		b[i] = i * n / parts
	}
	return b
}

// SplitPrefix splits [0, n) into parts contiguous ranges of
// approximately equal weight, where prefix is the length-(n+1)
// inclusive prefix-sum of per-item weights (prefix[0] == 0,
// prefix[n] == total). Boundary i targets i/parts of the total weight
// — the paper's "each thread is assigned approximately the same number
// of elements" rule — and lands on whichever side of the item
// straddling that target is closer to it.
//
// The side choice matters on row-length skew: an item heavier than
// total/parts straddles several consecutive targets, and always
// rounding up (the first prefix >= target) collapses those boundaries
// onto the same index, yielding empty middle parts and a tail part
// holding nearly everything. Rounding to the nearer side keeps each
// boundary as close to its target as row granularity allows, so the
// heavy item's part absorbs only the heavy item's own excess.
func SplitPrefix(prefix []int64, parts int) []int {
	if parts <= 0 {
		panic(core.Usagef("partition: SplitPrefix with parts=%d", parts))
	}
	if len(prefix) == 0 || prefix[0] != 0 {
		panic(core.Usagef("partition: SplitPrefix needs prefix with prefix[0]==0"))
	}
	n := len(prefix) - 1
	total := prefix[n]
	b := make([]int, parts+1)
	b[parts] = n
	for i := 1; i < parts; i++ {
		target := total * int64(i) / int64(parts)
		// First index whose prefix is >= target.
		j := sort.Search(n+1, func(k int) bool { return prefix[k] >= target })
		if j > n {
			j = n
		}
		// prefix[j-1] < target <= prefix[j]: step left when the item
		// ending at j overshoots the target by more than stopping short
		// would undershoot it (ties keep the old round-up placement).
		if j > 0 && prefix[j]-target > target-prefix[j-1] {
			j--
		}
		if j < b[i-1] {
			j = b[i-1]
		}
		b[i] = j
	}
	return b
}

// SplitRowsByNNZ splits the rows of a CSR matrix into parts ranges of
// approximately equal non-zero count. rowPtr is the standard CSR row
// pointer (len rows+1).
func SplitRowsByNNZ(rowPtr []int32, parts int) []int {
	prefix := make([]int64, len(rowPtr))
	for i, p := range rowPtr {
		prefix[i] = int64(p) - int64(rowPtr[0])
	}
	return SplitPrefix(prefix, parts)
}

// Imbalance returns max(weight of part) / (total/parts) for the given
// boundaries and prefix weights: 1.0 is a perfect balance. Returns 1 for
// zero total weight or zero parts. It panics with a core.ErrUsage-typed
// error — like the splitters — on an empty prefix or bounds, or on
// bounds that decrease or index outside [0, len(prefix)): before this
// validation an empty bounds slice produced parts = -1, skipped the
// parts == 0 guard and returned -0, and malformed bounds panicked with
// a raw index error on prefix[bounds[i]].
func Imbalance(prefix []int64, bounds []int) float64 {
	if len(prefix) == 0 {
		panic(core.Usagef("partition: Imbalance with empty prefix"))
	}
	if len(bounds) == 0 {
		panic(core.Usagef("partition: Imbalance with empty bounds"))
	}
	prev := 0
	for _, b := range bounds {
		if b < prev || b >= len(prefix) {
			panic(core.Usagef("partition: Imbalance bounds %v not non-decreasing within [0,%d]", bounds, len(prefix)-1))
		}
		prev = b
	}
	parts := len(bounds) - 1
	total := prefix[len(prefix)-1]
	if total == 0 || parts == 0 {
		return 1
	}
	var maxW int64
	for i := 0; i < parts; i++ {
		w := prefix[bounds[i+1]] - prefix[bounds[i]]
		if w > maxW {
			maxW = w
		}
	}
	return float64(maxW) * float64(parts) / float64(total)
}
