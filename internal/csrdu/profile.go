package csrdu

import (
	"math/bits"

	"spmv/internal/varint"
)

// Profile is the detailed structural profile of an encoded CSR-DU
// matrix: where the ctl bytes go (headers, jumps, deltas), how unit
// sizes and jump widths distribute, and how the delta-class mix varies
// across row regions. It extends UnitStats — which the paper's §IV
// argument needs in aggregate — with the histograms a tuner needs to
// see *why* a matrix compresses well or badly.
type Profile struct {
	// Units is the total unit count; PerClass splits the non-RLE units
	// by delta width class (ClassU8..ClassU64).
	Units    int    `json:"units"`
	PerClass [4]int `json:"units_per_class"`
	// RLEUnits, NRUnits and RJMPUnits count units with the respective
	// flag set (an RLE run, a new-row start, a multi-row jump).
	RLEUnits  int `json:"rle_units"`
	NRUnits   int `json:"nr_units"`
	RJMPUnits int `json:"rjmp_units"`
	// RepUnits counts the REP units and RepRows the rows they cover
	// (each unit's own row and the rows it repeats, which have no ctl
	// bytes of their own); Rows is the count of non-empty rows, so
	// RepRows/Rows is the share of rows on the fixed-offset path.
	RepUnits int `json:"rep_units"`
	RepRows  int `json:"rep_rows"`
	Rows     int `json:"rows"`
	// AvgUnitSize is the mean non-zeros per unit; large units mean few
	// decode branches per non-zero.
	AvgUnitSize float64 `json:"avg_unit_size"`
	// CtlBytes = HeaderBytes + JumpBytes + DeltaBytes: the ctl stream
	// partitioned into the 2-byte unit headers with the REP count
	// bytes, the rjmp/ujmp/RLE-delta varints, and the fixed-width delta
	// payloads.
	CtlBytes    int `json:"ctl_bytes"`
	HeaderBytes int `json:"header_bytes"`
	JumpBytes   int `json:"jump_bytes"`
	DeltaBytes  int `json:"delta_bytes"`
	// USizeHist buckets unit sizes (non-zeros per unit) by powers of
	// two: bucket b holds sizes in (2^(b-1), 2^b], so bucket 0 is size
	// 1, bucket 1 size 2, bucket 2 sizes 3-4, ... bucket 8 sizes
	// 129-255.
	USizeHist []int `json:"usize_hist"`
	// UJmpWidthHist buckets the encoded ujmp varints by byte width
	// (index 0 = 1 byte). Wide jumps mean scattered rows.
	UJmpWidthHist []int `json:"ujmp_width_hist"`
	// RLERunHist buckets RLE unit sizes like USizeHist; empty unless
	// the encoder ran with Options.RLE.
	RLERunHist []int `json:"rle_run_hist"`
	// Regions splits the rows into equal bands and reports the unit mix
	// per band, exposing structure drift down the matrix (a banded head
	// and a scattered tail profile differently). A REP unit counts in
	// the band of its first row, with all the non-zeros of its run.
	Regions []RegionProfile `json:"regions,omitempty"`
}

// RegionProfile is the unit mix of one horizontal band of rows.
type RegionProfile struct {
	RowLo    int    `json:"row_lo"`
	RowHi    int    `json:"row_hi"`
	PerClass [4]int `json:"units_per_class"`
	RLEUnits int    `json:"rle_units"`
	NNZ      int    `json:"nnz"`
}

// sizeBucket maps a unit size n >= 1 to its power-of-two histogram
// bucket: 1→0, 2→1, 3-4→2, 5-8→3, ..., 129-255→8.
func sizeBucket(n int) int {
	return bits.Len(uint(n - 1))
}

// Profile walks the ctl stream and returns the structural profile,
// splitting rows into nregions equal bands (0 disables the per-region
// breakdown). The totals agree with Stats(): same Units, PerClass,
// RLEUnits, RepUnits, RepRows and CtlBytes.
func (m *Matrix) Profile(nregions int) *Profile {
	p := &Profile{
		CtlBytes:      len(m.Ctl),
		USizeHist:     make([]int, 9),
		UJmpWidthHist: make([]int, 10),
		RLERunHist:    make([]int, 9),
	}
	if nregions > 0 && m.rows > 0 {
		if nregions > m.rows {
			nregions = m.rows
		}
		p.Regions = make([]RegionProfile, nregions)
		for i := range p.Regions {
			p.Regions[i].RowLo = i * m.rows / nregions
			p.Regions[i].RowHi = (i + 1) * m.rows / nregions
		}
	}
	ctl := m.Ctl
	pos := 0
	yi := -1
	total := 0
	for pos < len(ctl) {
		flags := ctl[pos]
		size := int(ctl[pos+1])
		pos += 2
		p.HeaderBytes += 2
		if flags&FlagNR != 0 {
			p.NRUnits++
			var skip uint64 = 1
			if flags&FlagRJMP != 0 {
				p.RJMPUnits++
				start := pos
				skip, pos = varint.DecodeAt(ctl, pos)
				p.JumpBytes += pos - start
			}
			yi += int(skip)
		}
		start := pos
		_, pos = varint.DecodeAt(ctl, pos) // ujmp
		p.JumpBytes += pos - start
		p.UJmpWidthHist[pos-start-1]++
		var reg *RegionProfile
		if len(p.Regions) > 0 {
			reg = &p.Regions[yi*len(p.Regions)/m.rows]
		}
		if flags&FlagRLE != 0 {
			start = pos
			_, pos = varint.DecodeAt(ctl, pos)
			p.JumpBytes += pos - start
			p.RLEUnits++
			p.RLERunHist[sizeBucket(size)]++
			if reg != nil {
				reg.RLEUnits++
			}
		} else {
			cls := int(flags & TypeMask)
			p.PerClass[cls]++
			db := (size - 1) << cls
			p.DeltaBytes += db
			pos += db
			if reg != nil {
				reg.PerClass[cls]++
			}
		}
		nnz := size
		if flags&FlagREP != 0 {
			r := int(ctl[pos])
			pos++
			p.HeaderBytes++
			p.RepUnits++
			p.RepRows += r + 1
			p.Rows += r
			nnz += r * size
			yi += r
		}
		if flags&FlagNR != 0 {
			p.Rows++
		}
		if reg != nil {
			reg.NNZ += nnz
		}
		p.USizeHist[sizeBucket(size)]++
		p.Units++
		total += size
	}
	if p.Units > 0 {
		p.AvgUnitSize = float64(total) / float64(p.Units)
	}
	return p
}
