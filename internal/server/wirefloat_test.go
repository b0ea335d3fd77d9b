package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// refScanNumber is the number grammar parseNumber replaced, kept as its
// oracle: the end of the RFC 8259 number starting at b[i], or -1 when
// none starts there.
func refScanNumber(b []byte, i int) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// checkParse holds parseNumber on b to the oracle: it accepts exactly
// when refScanNumber finds a number and strconv.ParseFloat converts it,
// with the same end and the same bits.
func checkParse(t *testing.T, b []byte) {
	t.Helper()
	v, j, err := parseNumber(b, 0)
	wj := refScanNumber(b, 0)
	if j != wj {
		t.Fatalf("parseNumber(%q) ends at %d, the grammar at %d", b, j, wj)
	}
	if wj < 0 {
		return
	}
	w, werr := strconv.ParseFloat(string(b[:wj]), 64)
	if (err == nil) != (werr == nil) {
		t.Fatalf("parseNumber(%q) error %v, strconv.ParseFloat error %v", b, err, werr)
	}
	if err == nil && math.Float64bits(v) != math.Float64bits(w) {
		t.Fatalf("parseNumber(%q) = %v (%#x), strconv.ParseFloat = %v (%#x)",
			b, v, math.Float64bits(v), w, math.Float64bits(w))
	}
}

// checkFormat holds appendFloat on a finite v to encoding/json's bytes.
func checkFormat(t *testing.T, v float64) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	if got := appendFloat(nil, v); string(got) != string(want) {
		t.Fatalf("appendFloat(%v) (%#x) = %s, encoding/json writes %s", v, math.Float64bits(v), got, want)
	}
}

// FuzzWireFloat is the codec's number-level differential test. Read as
// text, any input is parsed by parseNumber exactly as refScanNumber's
// grammar plus strconv.ParseFloat parse it; read as little-endian
// float64 bits, every finite value is formatted byte for byte as
// encoding/json formats it.
func FuzzWireFloat(f *testing.F) {
	for _, s := range wireFloatEdges {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
		for i := 0; i+8 <= len(data); i += 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:])); !math.IsInf(v, 0) && !math.IsNaN(v) {
				checkFormat(t, v)
			}
		}
	})
}

// wireFloatEdges are the numbers whose conversion is easiest to get
// wrong: exact halfway points between doubles (round half to even),
// 17, 19 and 20 significant digits around the fast path's limit,
// fractions with leading zeros, exponents, and malformed numbers.
var wireFloatEdges = []string{
	"9007199254740993", "9007199254740995", "-9007199254740993", // 2^53+1, 2^53+3
	"9007199254740992", "9007199254740991", "-9007199254740991", // 2^53, 2^53-1
	"4503599627370496.5", "4503599627370497.5", // ties below 2^53
	"18014398509481986", "9223372036854776832", // ties at 2^54, 2^63 (19 digits)
	"9223372036854777856", "9999999999999999999", "10000000000000000000", "18446744073709551616",
	"12345678901234567", "1234567890123456789", "12345678901234567890",
	"0.1", "0.2", "0.3", "-0.30000000000000004", "0.30000000000000001665",
	"0.000001", "0.0000009999999999999999", "0.00000000000000000012345",
	"0.1234567890123456789", "0.01234567890123456789", "0.0000000000000000001",
	"999999999999999999999", "1000000000000000000000", "100000000000000000000",
	"0", "-0", "0.0", "-0.000", "1", "-1", "00", "01", "-", "-a", ".5", "1.", "1.e5",
	"1e", "1e+", "1E-7", "5e-324", "4.9E-324", "1.7976931348623157e308", "1e309", "-1e400",
	"1e-400", "2.2250738585072011e-308", "12345678.12345678", "123456781234567812345678",
	"1.5,", "2]", "3 ", "0x10", "NaN", "Infinity",
}

// TestWireFloatEdges runs the edge numbers through both directions:
// every edge string is parsed as the oracle parses it, and the doubles
// at the codec's boundaries are formatted as encoding/json formats
// them — the neighbours of 1e-6 and 1e21 where the 'f' fast path hands
// over to 'e', ±0, the smallest subnormal, MaxFloat64, 2^53±1, and
// every power of two in the fast path's range (the binade boundary,
// where Schubfach's interval is asymmetric).
func TestWireFloatEdges(t *testing.T) {
	for _, s := range wireFloatEdges {
		checkParse(t, []byte(s))
	}
	vs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 0.1, 0.3, 1.0 / 3, 123456789012345678, 1e17, 1e20}
	for _, edge := range []float64{1e-6, 1e21} {
		v := edge
		for i := 0; i < 3; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 7; i++ {
			vs = append(vs, v, -v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	for e := -21; e <= 70; e++ {
		p := math.Ldexp(1, e)
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, 2*p))
	}
	for _, v := range vs {
		checkFormat(t, v)
		b := appendFloat(nil, v)
		checkParse(t, b)
		if got, _, _ := parseNumber(b, 0); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s parses back to %v, not %v", b, got, v)
		}
	}
}

// TestWireFloatRandom: 10^6 random values each way. Formatted:
// NormFloat64 values (the benchmark's x), doubles with a uniform
// exponent over the 'f' fast path's range and past it, and integers.
// Parsed: decimals of 1 to 22 digits with the point anywhere, and
// halfway points between adjacent doubles with the last digit nudged
// either way.
func TestWireFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = rng.NormFloat64()
		case 1:
			v = math.Ldexp(1+rng.Float64(), rng.Intn(96)-24)
		case 2:
			v = float64(rng.Int63n(1 << 60))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		checkFormat(t, v)
	}
	digits := make([]byte, 0, 24)
	for i := 0; i < 1_000_000; i++ {
		digits = digits[:0]
		if i%2 == 0 {
			// A decimal of 1-22 digits with the point anywhere.
			nd := 1 + rng.Intn(22)
			for k := 0; k < nd; k++ {
				digits = append(digits, byte('0'+rng.Intn(10)))
			}
			digits[0] = byte('1' + rng.Intn(9))
			if pt := rng.Intn(nd + 1); pt == 0 {
				digits = append([]byte("0."), digits...)
			} else if pt < nd {
				digits = append(digits[:pt], append([]byte{'.'}, digits[pt:]...)...)
			}
		} else {
			// (2c+1) * 2^e, halfway between c*2^(e+1) and (c+1)*2^(e+1),
			// for the e in [-3, 9] whose decimals fit 19 digits.
			h := 2*(1<<52|rng.Uint64()&(1<<52-1)) + 1
			if e := rng.Intn(13) - 3; e >= 0 {
				digits = strconv.AppendUint(digits, h<<e, 10)
			} else {
				for k := 0; k < -e; k++ {
					h *= 5
				}
				digits = strconv.AppendUint(digits, h, 10)
				p := len(digits) + e
				digits = append(digits[:p], append([]byte{'.'}, digits[p:]...)...)
			}
			if last := len(digits) - 1; rng.Intn(3) == 0 && digits[last] < '9' {
				digits[last]++
			} else if rng.Intn(2) == 0 && digits[last] > '0' {
				digits[last]--
			}
		}
		if rng.Intn(2) == 0 {
			digits = append([]byte{'-'}, digits...)
		}
		checkParse(t, digits)
	}
}

// TestWireFloatGTable recomputes Schubfach's g table with math/big and
// checks the floor-log approximations on every exponent the fast path
// reaches, as exact comparisons of powers.
func TestWireFloatGTable(t *testing.T) {
	pow := func(b, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil) }
	ratio := func(e10, e2 int) *big.Rat { // 10^e10 * 2^e2
		r := new(big.Rat).SetInt64(1)
		if e10 >= 0 {
			r.Mul(r, new(big.Rat).SetInt(pow(10, int64(e10))))
		} else {
			r.Quo(r, new(big.Rat).SetInt(pow(10, int64(-e10))))
		}
		if e2 >= 0 {
			r.Mul(r, new(big.Rat).SetInt(pow(2, int64(e2))))
		} else {
			r.Quo(r, new(big.Rat).SetInt(pow(2, int64(-e2))))
		}
		return r
	}
	one := new(big.Rat).SetInt64(1)
	for k := gTableMinK; k < gTableMinK+len(gTable); k++ {
		// g = floor(10^-k * 2^(125 - flog2pow10(-k))) + 1, in [2^125, 2^126].
		r := ratio(-k, 125-flog2pow10(-k))
		g := new(big.Int).Quo(r.Num(), r.Denom())
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 126 {
			t.Fatalf("k=%d: g has %d bits, want 126", k, g.BitLen())
		}
		lo := new(big.Int).And(g, new(big.Int).SetUint64(1<<63-1))
		hi := new(big.Int).Rsh(g, 63)
		if want := [2]uint64{hi.Uint64(), lo.Uint64()}; gTable[k-gTableMinK] != want {
			t.Fatalf("gTable[k=%d] = %#x, want %#x", k, gTable[k-gTableMinK], want)
		}
	}
	// Every q of a double c*2^q in [1e-6, 1e21) maps into the table:
	// 2^-20 <= 1e-6 and 1e21 < 2^70, with c in [2^52, 2^53).
	for q := -72; q <= 17; q++ {
		// flog10pow2(q) = k iff 10^k <= 2^q < 10^(k+1).
		k := flog10pow2(q)
		if ratio(-k, q).Cmp(one) < 0 || ratio(-k-1, q).Cmp(one) >= 0 {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		// flog10ThreeQuartersPow2(q) = k iff 10^k <= 3*2^(q-2) < 10^(k+1).
		k3 := flog10ThreeQuartersPow2(q)
		three := new(big.Rat).SetInt64(3)
		if new(big.Rat).Mul(three, ratio(-k3, q-2)).Cmp(one) < 0 ||
			new(big.Rat).Mul(three, ratio(-k3-1, q-2)).Cmp(one) >= 0 {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d", q, k3)
		}
		for _, k := range []int{k, k3} {
			if k < gTableMinK || k >= gTableMinK+len(gTable) {
				t.Fatalf("q=%d reaches k=%d, outside the table", q, k)
			}
			// flog2pow10(-k) = e iff 2^e <= 10^-k < 2^(e+1).
			e := flog2pow10(-k)
			if ratio(-k, -e).Cmp(one) < 0 || ratio(-k, -e-1).Cmp(one) >= 0 {
				t.Fatalf("flog2pow10(%d) = %d", -k, e)
			}
		}
	}
}

// BenchmarkWireCodec times the codec's two float64 directions on the
// benchmark's request shape, 4096 NormFloat64 values: parse is
// parseNumber over their json.Marshal text, format is appendFloat.
// Reports ns/value.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
	text, err := json.Marshal(vs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i := 1; i < len(text); {
				_, j, err := parseNumber(text, i)
				if j < 0 || err != nil {
					b.Fatalf("parseNumber at %d: end %d, %v", i, j, err)
				}
				i = j + 1 // past the comma
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/value")
	})
	b.Run("format", func(b *testing.B) {
		dst := make([]byte, 0, len(text))
		for n := 0; n < b.N; n++ {
			dst = dst[:0]
			for _, v := range vs {
				dst = appendFloat(dst, v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/value")
	})
}
