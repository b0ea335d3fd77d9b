package csrvi

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
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
//
// A dictionary is built only where it is smaller than the plain value
// stream it replaces (Pays). Numbering stops at the first distinct value
// past break-even; ok is then false, every other result is nil, and the
// caller keeps the plain stream.
func IndexValues(vals []float64) (unique []float64, vi8 []uint8, vi16 []uint16, vi32 []uint32, ok bool) {
	nnz := len(vals)
	// Pays is monotone in the unique count, so most is the count past
	// which no dictionary over vals can pay.
	most := sort.Search(nnz+1, func(u int) bool { return !Pays(u, nnz) }) - 1
	if most < 1 {
		return nil, nil, nil, nil, false
	}
	ids := make([]uint32, nnz)
	s := min(nnz, sampleSize)
	t := &valueTable{seed: rand.Uint64(), most: most}
	t.reserve(min(s, most+1))
	if !t.number(vals[:s], ids[:s]) {
		return nil, nil, nil, nil, false
	}
	if s < nnz {
		est := min(len(t.unique)*(nnz/s), most+1)
		t.unique = slices.Grow(t.unique, est-len(t.unique))
		t.reserve(est)
		if !t.number(vals[s:], ids[s:]) {
			return nil, nil, nil, nil, false
		}
		if cap(t.unique) > 2*len(t.unique) {
			// The sample overestimated: do not let the matrix keep the
			// spare capacity.
			t.unique = slices.Clone(t.unique)
		}
	}
	vi8, vi16, vi32 = Narrow(ids, Width(len(t.unique)))
	return t.unique, vi8, vi16, vi32, true
}

// Width returns the val_ind width in bytes, 1, 2 or 4, of a dictionary
// of unique values: the narrowest that addresses them all.
func Width(unique int) int {
	switch {
	case unique <= 1<<8:
		return 1
	case unique <= 1<<16:
		return 2
	}
	return 4
}

// Pays reports whether a dictionary of unique values over nnz non-zeros
// is smaller than their plain float64 stream: one Width(unique)-byte
// index a non-zero plus the table, against 8 bytes a non-zero,
//
//	Width(unique)*nnz + 8*unique < 8*nnz.
//
// This byte rule, not the paper's ttu > 5, decides the codec: at equal
// bytes the plain stream wins, since it spares the indirection.
func Pays(unique, nnz int) bool {
	return int64(Width(unique))*int64(nnz)+8*int64(unique) < 8*int64(nnz)
}

// CodecName names the value codec of a val_ind width as the tools
// report it: "plain" for 0, otherwise "dictionary u8", "u16" or "u32".
func CodecName(width int) string {
	if width == 0 {
		return "plain"
	}
	return "dictionary u" + strconv.Itoa(8*width)
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
	most   int      // the unique count past which number gives up
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
// not yet in the table to unique. It returns false, with ids only
// partly written, as soon as unique would pass t.most values.
func (t *valueTable) number(vals []float64, ids []uint32) bool {
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
			n := len(t.unique) + 1
			if n > t.most {
				return false
			}
			t.unique = append(t.unique, v)
			slots[h] = uint32(n)
			ids[k] = uint32(n - 1)
			if 2*n > len(slots) {
				t.reserve(n)
				slots, mask = t.slots, uint64(len(t.slots)-1)
			}
			break
		}
	}
	return true
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
