package csrvi

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapIndex is the reference dictionary: a Go map from bit pattern to
// id, numbering in order of first appearance.
func mapIndex(vals []float64) (unique []float64, ids []uint32) {
	index := make(map[uint64]uint32)
	ids = make([]uint32, len(vals))
	for k, v := range vals {
		bits := math.Float64bits(v)
		id, ok := index[bits]
		if !ok {
			id = uint32(len(unique))
			index[bits] = id
			unique = append(unique, v)
		}
		ids[k] = id
	}
	return unique, ids
}

// cycle returns n values drawn round-robin from distinct distinct
// values, so every id appears and the last ones first appear late.
func cycle(n, distinct int) []float64 {
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = float64(k%distinct) + 0.5
	}
	return vals
}

func TestIndexValuesMatchesMap(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	// A 16 Ki sample holding 2 values, then 70 000 more, each three
	// times: the table is presized for ~40 keys and must grow many times.
	late := cycle(sampleSize, 2)
	for k := 0; k < 210000; k++ {
		late = append(late, float64(k%70000)*1.25)
	}
	// 16 Ki distinct values, then one value 200 000 times: the table is
	// presized for ~200 000 keys and holds 16 Ki + 1.
	early := cycle(sampleSize, sampleSize)
	for k := 0; k < 200000; k++ {
		early = append(early, -1)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 100000)
	for k := range random {
		random[k] = rng.NormFloat64()
	}
	// width 0: no dictionary pays, so IndexValues builds none.
	cases := []struct {
		name  string
		vals  []float64
		width int
	}{
		{"empty", nil, 0},
		{"single", []float64{2.5}, 0},
		{"first appearance", []float64{3, 1, 3, 2, 1, 7}, 1},
		{"signed zeros", []float64{0, negZero, 0, negZero}, 1},
		{"nan payloads", []float64{nan1, nan2, nan1, math.NaN(), nan2}, 1},
		{"unique 1", cycle(1000, 1), 1},
		{"unique 256", cycle(3000, 256), 1},
		{"unique 257", cycle(3000, 257), 2},
		{"unique 65536", cycle(150000, 65536), 2},
		{"unique 65537", cycle(150000, 65537), 4},
		{"unique 65537 too few", cycle(70000, 65537), 0},
		{"sample underestimates", late, 4},
		{"sample overestimates", early, 2},
		{"random", random, 0},
	}
	for _, tc := range cases {
		unique, vi8, vi16, vi32, ok := IndexValues(tc.vals)
		if tc.width == 0 {
			if ok || unique != nil || vi8 != nil || vi16 != nil || vi32 != nil {
				t.Errorf("%s: built a dictionary of %d values where none pays", tc.name, len(unique))
			}
			continue
		}
		if !ok {
			t.Errorf("%s: built no dictionary", tc.name)
			continue
		}
		wantUnique, wantIDs := mapIndex(tc.vals)
		if !slices.EqualFunc(unique, wantUnique, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Errorf("%s: %d unique values differ from the map's %d", tc.name, len(unique), len(wantUnique))
			continue
		}
		switch {
		case vi8 != nil:
			// The u8 table: capacity 256, NaN past the stored values.
			for i, v := range unique[len(unique):TableSize] {
				if !math.IsNaN(v) {
					t.Errorf("%s: table entry %d past %d values is %v, want NaN", tc.name, len(unique)+i, len(unique), v)
					break
				}
			}
		case cap(unique) > 2*len(unique):
			t.Errorf("%s: %d unique values keep capacity %d", tc.name, len(unique), cap(unique))
		}
		var ids []uint32
		width := 0
		switch {
		case vi8 != nil && vi16 == nil && vi32 == nil:
			width = 1
			for _, v := range vi8 {
				ids = append(ids, uint32(v))
			}
		case vi16 != nil && vi8 == nil && vi32 == nil:
			width = 2
			for _, v := range vi16 {
				ids = append(ids, uint32(v))
			}
		case vi32 != nil && vi8 == nil && vi16 == nil:
			width, ids = 4, vi32
		default:
			t.Errorf("%s: not exactly one val_ind stream set", tc.name)
			continue
		}
		if width != tc.width {
			t.Errorf("%s: width %d for %d unique values, want %d", tc.name, width, len(unique), tc.width)
		}
		if len(ids) != len(wantIDs) || (len(ids) > 0 && !slices.Equal(ids, wantIDs)) {
			t.Errorf("%s: ids differ from the map's", tc.name)
		}
	}
}

// floodKeys returns n distinct finite values whose bit patterns b all
// give products b*fibMul with the same top 32 bits: under the unseeded
// Fibonacci hash (b*fibMul)>>shift they share one home slot in every
// table of up to 2^32 slots. fibMul is odd, so such b are found through
// its inverse mod 2^64.
func floodKeys(n int) []float64 {
	const fibMul = 0x9e3779b97f4a7c15
	inv := uint64(fibMul) // Newton's iteration: 3, 6, 12, 24, 48, 96 bits
	for range 5 {
		inv *= 2 - fibMul*inv
	}
	vals := make([]float64, 0, n)
	for p := uint64(0x1234_5678) << 32; len(vals) < n; p++ {
		if v := math.Float64frombits(p * inv); !math.IsInf(v, 0) && !math.IsNaN(v) {
			if math.Float64bits(v)*fibMul>>32 != 0x1234_5678 {
				panic("floodKeys: bad inverse")
			}
			vals = append(vals, v)
		}
	}
	return vals
}

func TestValueTableResistsChosenCollisions(t *testing.T) {
	// Each key three times, so that a dictionary pays.
	keys := floodKeys(100000)
	vals := slices.Concat(keys, keys, keys)
	unique, _, _, vi32, _ := IndexValues(vals)
	wantUnique, wantIDs := mapIndex(vals)
	if !slices.Equal(unique, wantUnique) || !slices.Equal(vi32, wantIDs) {
		t.Fatal("IndexValues differs from the map on the flood keys")
	}
	// Build the table as IndexValues does and sum, over the keys it
	// holds, how far each sits past its home slot: what a lookup of
	// every key probes beyond the first slot. Keys sharing one home
	// would sum to about n*n/2.
	tab := &valueTable{seed: rand.Uint64(), most: len(keys)}
	tab.reserve(sampleSize)
	tab.number(keys, make([]uint32, len(keys)))
	mask := uint64(len(tab.slots) - 1)
	var displaced uint64
	for h, id := range tab.slots {
		if id != 0 {
			displaced += (uint64(h) - tab.home(math.Float64bits(tab.unique[id-1]))) & mask
		}
	}
	if avg := float64(displaced) / float64(len(keys)); avg > 4 {
		t.Errorf("chosen keys sit %.1f slots past home on average, want at most 4", avg)
	}
}
