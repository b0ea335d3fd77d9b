package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"

	"spmv/internal/core"
)

// The multiply wire codec's float64 conversions (DESIGN.md §20 "Fast
// paths"). Both directions take an exact integer path for the numbers
// the multiply wire carries and leave every other number to strconv,
// the package encoding/json calls, so the bits and bytes stay those of
// encoding/json.

// parseNumber parses the RFC 8259 number starting at b[i],
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// and returns its value and end. The end is -1 when no number starts
// at b[i]; err is strconv's error when the number is out of float64
// range. A number without an exponent part whose digits, a lone
// leading 0 aside, number at most 19 is converted exactly by divPow10;
// any other number goes to strconv.ParseFloat on the same bytes.
func parseNumber(b []byte, i int) (float64, int, error) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	var m uint64
	nd := 0 // digits in m
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		m, nd, i = scanDigits(b, i, 0, 0)
	default:
		return 0, -1, nil
	}
	frac := 0
	hasExp := false
	if i < len(b) && b[i] == '.' {
		j := i + 1
		m, nd, i = scanDigits(b, j, m, nd)
		if i == j {
			return 0, -1, nil
		}
		frac = i - j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if _, _, i = scanDigits(b, j, 0, 0); i == j {
			return 0, -1, nil
		}
		hasExp = true
	}
	if hasExp || nd > 19 {
		v, err := strconv.ParseFloat(string(b[start:i]), 64)
		return v, i, err
	}
	// frac <= nd <= 19, so m < 10^19 and the value is m / 10^frac.
	v := divPow10(m, frac)
	if b[start] == '-' {
		v = -v
	}
	return v, i, nil
}

// scanDigits consumes the digits at b[i:] and returns m and nd
// extended by them (m = 10*m + digit, nd counting digits; m is
// meaningful only while nd <= 19) and the index of the first non-digit.
// Runs of eight digits are checked and converted in one little-endian
// load.
func scanDigits(b []byte, i int, m uint64, nd int) (uint64, int, int) {
	for ; len(b)-i >= 8; i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		// Every byte is 0x30-0x39 iff its high nibble is 3 and stays 3
		// once 6 is added.
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		// Fold byte pairs, then 16-bit pairs, then 32-bit pairs: the
		// first digit sits in the lowest byte.
		v -= 0x3030303030303030
		v = (v*10 + v>>8) & 0x00FF00FF00FF00FF
		v = (v*100 + v>>16) & 0x0000FFFF0000FFFF
		v = (v*10000 + v>>32) & 0xFFFFFFFF
		m = m*1e8 + v
		nd += 8
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
		nd++
	}
	return m, nd, i
}

// pow10 holds 10^0 .. 10^19, every power of ten below 2^64.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// divPow10 returns m / 10^e correctly rounded, for m < 10^19 and
// 0 <= e <= 19: the float64 strconv.ParseFloat gives. With m and 10^e
// both shifted into [2^63, 2^64), one 128-by-64-bit division yields a
// 64-bit quotient with its top bit set and a remainder; the quotient's
// top 53 bits are the significand, and its low 11 bits, with the
// remainder as the sticky bit, round it half to even. The value lies
// in [1e-19, 1e19), far from subnormals and overflow.
func divPow10(m uint64, e int) float64 {
	if m == 0 {
		return 0
	}
	sm := bits.LeadingZeros64(m)
	d := pow10[e]
	sd := bits.LeadingZeros64(d)
	m <<= sm
	d <<= sd
	// hi < d is what bits.Div64 needs: the quotient then fits 64 bits.
	hi, lo, e2 := m, uint64(0), sd-sm-53
	if m >= d {
		hi, lo, e2 = m>>1, m<<63, sd-sm-52
	}
	q, r := bits.Div64(hi, lo, d)
	// m / 10^e = (q + r/d) * 2^(e2-11), q in [2^63, 2^64).
	mant, low := q>>11, q&0x7FF
	if low > 0x400 || low == 0x400 && (r != 0 || mant&1 != 0) {
		mant++
	}
	if mant == 1<<53 {
		mant >>= 1
		e2++
	}
	return math.Float64frombits(uint64(e2+52+1023)<<52 | mant&(1<<52-1))
}

// appendFloat appends a finite v in encoding/json's float64 form: the
// shortest 'f' representation, or 'e' when |v| < 1e-6 or |v| >= 1e21,
// with a two-digit negative exponent trimmed to one digit (e-07 ->
// e-7). The 'f' range, zero aside, is appendShortest's.
func appendFloat(dst []byte, v float64) []byte {
	if abs := math.Abs(v); abs >= 1e-6 && abs < 1e21 {
		return appendShortest(dst, v)
	}
	format := byte('e')
	if core.IsZero(v) {
		format = 'f'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendShortest appends v, 1e-6 <= |v| < 1e21, as strconv.AppendFloat
// (v, 'f', -1, 64) does: the decimal with the fewest significant digits
// that reads back as v, the closest to v of those, ties to an even last
// digit. The digits come from Giulietti's Schubfach ("The Schubfach way
// to render doubles", 2020, Figure 7 with the integer computations of
// its §9): v = c*2^q, k = floor(log10(2^q)) (of 3/4*2^q at a binade's
// lower end, where the gap below v halves), and the rounding interval
// of v scaled by 10^-k, its bounds included when c is even, holds one
// or two integers; that is s or s+1, unless exactly one multiple of 10
// lies in it.
func appendShortest(dst []byte, v float64) []byte {
	vb := math.Float64bits(v)
	if vb>>63 != 0 {
		dst = append(dst, '-')
	}
	c := vb&(1<<52-1) | 1<<52
	q := int(vb>>52&0x7FF) - 1075
	out := c & 1
	cb := c << 2
	cbl := cb - 2
	k := flog10pow2(q)
	if c == 1<<52 {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &gTable[k-gTableMinK]
	vbc := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], (cb+2)<<h)

	s := vbc >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	d := tp10
	if upin {
		d = sp10
	}
	if upin == wpin {
		t := s + 1
		uin, win := vbl+out <= s<<2, t<<2+out <= vbr
		cmp := int64(vbc) - int64((s+t)<<1)
		d = t
		if uin && !win || uin == win && (cmp < 0 || cmp == 0 && s&1 == 0) {
			d = s
		}
	}

	// v = d*10^k, d < 10^17: write d as 17 digits, two per lookup, and
	// place the point p digits in.
	var buf [17]byte
	hi, lo := d/1e8, d%1e8
	buf[0] = byte(hi/1e8) + '0'
	put8((*[8]byte)(buf[1:9]), uint32(hi%1e8))
	put8((*[8]byte)(buf[9:17]), uint32(lo))
	first := 0
	if buf[0] == '0' { // d >= 2^52 - 9, so at most one leading zero
		first = 1
	}
	end := len(buf)
	for buf[end-1] == '0' {
		end--
	}
	switch p := len(buf) + k; {
	case p <= first: // |v| < 1: 0.000ddd, at most 5 zeros after the point
		dst = append(dst, "0.00000"[:2+first-p]...)
		dst = append(dst, buf[first:end]...)
	case p < end:
		dst = append(dst, buf[first:p]...)
		dst = append(dst, '.')
		dst = append(dst, buf[p:end]...)
	case p <= len(buf):
		dst = append(dst, buf[first:p]...)
	default: // |v| >= 1e17: at most 5 zeros after the 17 digits
		dst = append(dst, buf[first:]...)
		dst = append(dst, "00000"[:p-len(buf)]...)
	}
	return dst
}

// put8 writes v < 10^8 as eight digits: two halves of four, each two
// pairs, so the divisions do not chain.
func put8(b *[8]byte, v uint32) {
	hi, lo := v/10000, v%10000
	p0, p1, p2, p3 := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	b[0], b[1] = digitPairs[p0], digitPairs[p0+1]
	b[2], b[3] = digitPairs[p1], digitPairs[p1+1]
	b[4], b[5] = digitPairs[p2], digitPairs[p2+1]
	b[6], b[7] = digitPairs[p3], digitPairs[p3+1]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// flog10pow2 is floor(q*log10(2)), flog10ThreeQuartersPow2 is
// floor(log10(3/4*2^q)) and flog2pow10 is floor(e*log2(10)), each
// exact on the exponents appendShortest reaches (Schubfach §9.5).
func flog10pow2(q int) int              { return q * 661971961083 >> 41 }
func flog10ThreeQuartersPow2(q int) int { return (q*661971961083 - 274743187321) >> 41 }
func flog2pow10(e int) int              { return e * 913124641741 >> 38 }

// rop is Schubfach's r_o(cp*g*2^-127) (§9.9, Figure 8) for
// g = g1*2^63 + g0: the product's integer part, rounded to odd by
// setting its last bit when the dropped fraction is not zero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}

// gTable[k-gTableMinK] holds g(k) = floor(10^-k * 2^(125 -
// flog2pow10(-k))) + 1 as its high and low 63-bit halves, for the k
// that 1e-6 <= |v| < 1e21 reaches. TestWireFloatGTable recomputes it.
const gTableMinK = -22

var gTable = [28][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}
