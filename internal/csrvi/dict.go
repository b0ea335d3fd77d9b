package csrvi

import (
	"math"
	"math/rand/v2"
	"slices"
)

// sampleSize is the number of leading values whose distinct count sizes
// the dictionary: the table is presized for that count extrapolated to
// the whole stream, so a matrix of distinct values never rehashes and a
// matrix of few values keeps a table that fits in cache.
const sampleSize = 16 << 10

// IndexValues is the CSR-VI value dictionary, shared by every format
// that indirects its values. It numbers the distinct float64 bit
// patterns of vals in order of first appearance and returns them as
// unique, with one index per value in the narrowest of 1/2/4 bytes that
// addresses len(unique): exactly one of vi8/vi16/vi32 is non-nil.
// Distinctness is on the bit pattern, so +0 and -0 are distinct, and so
// are NaNs with different payloads.
func IndexValues(vals []float64) (unique []float64, vi8 []uint8, vi16 []uint16, vi32 []uint32) {
	ids := make([]uint32, len(vals))
	s := min(len(vals), sampleSize)
	t := &valueTable{seed: rand.Uint64()}
	t.reserve(s)
	t.number(vals[:s], ids[:s])
	if s < len(vals) {
		est := len(t.unique) * (len(vals) / s)
		t.unique = slices.Grow(t.unique, est-len(t.unique))
		t.reserve(est)
		t.number(vals[s:], ids[s:])
		if cap(t.unique) > 2*len(t.unique) {
			// The sample overestimated: do not let the matrix keep the
			// spare capacity.
			t.unique = slices.Clone(t.unique)
		}
	}
	width := 4
	if uv := len(t.unique); uv <= 1<<8 {
		width = 1
	} else if uv <= 1<<16 {
		width = 2
	}
	vi8, vi16, vi32 = Narrow(ids, width)
	return t.unique, vi8, vi16, vi32
}

// Narrow stores value ids as a val_ind stream of width 1, 2 or 4 bytes;
// exactly one result is non-nil. Every id must fit in the width.
func Narrow(ids []uint32, width int) (vi8 []uint8, vi16 []uint16, vi32 []uint32) {
	switch width {
	case 1:
		vi8 = make([]uint8, len(ids))
		for k, v := range ids {
			vi8[k] = uint8(v)
		}
	case 2:
		vi16 = make([]uint16, len(ids))
		for k, v := range ids {
			vi16[k] = uint16(v)
		}
	default:
		vi32 = ids
	}
	return vi8, vi16, vi32
}

// valueTable is an open-addressing hash set of float64 bit patterns
// with linear probing. A slot holds only an id; the key it stands for
// is the bit pattern of unique[id-1], so a table of distinct values
// costs 4 bytes a slot beside the unique array it builds anyway. It
// doubles when it passes half load, so a probe sequence stays short.
type valueTable struct {
	slots  []uint32 // id+1 of a value; 0 marks an empty slot
	shift  uint     // 64 - log2(len(slots)): home keeps the top bits
	seed   uint64   // drawn per table; see home
	unique []float64
}

// home returns the first slot probed for bit pattern b: the top bits of
// the MurmurHash3 64-bit finalizer of b under the table's seed. The
// values come from the caller (an upload, in spmvd): under an unseeded
// hash, keys chosen to share a home slot would make the i-th insert
// probe i slots. A seed drawn per table leaves no input known in
// advance to collide.
func (t *valueTable) home(b uint64) uint64 {
	b ^= t.seed
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b >> t.shift
}

// number writes into ids[k] the id of vals[k], appending each pattern
// not yet in the table to unique.
func (t *valueTable) number(vals []float64, ids []uint32) {
	ids = ids[:len(vals)]
	slots, mask := t.slots, uint64(len(t.slots)-1)
	for k, v := range vals {
		b := math.Float64bits(v)
		for h := t.home(b); ; h = (h + 1) & mask {
			if id := slots[h]; id != 0 {
				if math.Float64bits(t.unique[id-1]) == b {
					ids[k] = id - 1
					break
				}
				continue
			}
			t.unique = append(t.unique, v)
			n := len(t.unique)
			slots[h] = uint32(n)
			ids[k] = uint32(n - 1)
			if 2*n > len(slots) {
				t.reserve(n)
				slots, mask = t.slots, uint64(len(t.slots)-1)
			}
			break
		}
	}
}

// reserve grows the table, if needed, to hold n >= len(unique) values
// at no more than half load, rehashing the values it holds.
func (t *valueTable) reserve(n int) {
	if 2*n <= len(t.slots) {
		return
	}
	size, shift := 16, uint(60)
	for size < 2*n {
		size *= 2
		shift--
	}
	t.slots, t.shift = make([]uint32, size), shift
	mask := uint64(size - 1)
	for k, v := range t.unique {
		h := t.home(math.Float64bits(v))
		for t.slots[h] != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = uint32(k + 1)
	}
}
