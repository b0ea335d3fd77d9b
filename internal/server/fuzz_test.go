package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/server/faulttest"
)

// FuzzServeUpload drives arbitrary bytes through the upload endpoint
// and, when one is admitted, through a multiply — the full
// attacker-reachable parse path (sniff, mmio/matfile decode, verify,
// build, execute). The property: the server never crashes, answers
// only sane statuses, and anything admitted serves finite-length
// results. Seeded with the valid payloads and the PR-1-style
// corruption corpus.
func FuzzServeUpload(f *testing.F) {
	mmioSeed := faulttest.ValidMMIO(41, 20)
	f.Add(mmioSeed)
	for _, format := range []string{"csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr"} {
		f.Add(faulttest.ValidMatfile(41, 16, format))
	}
	for _, c := range faulttest.CorruptUploads(mmioSeed) {
		f.Add(c)
	}
	for _, c := range faulttest.CorruptUploads(faulttest.ValidMatfile(42, 16, "csr")) {
		f.Add(c)
	}
	f.Add(faulttest.AllocBombMatfile(faulttest.ValidMatfile(43, 16, "csr")))
	// A symmetric header on a non-square shape: rejected, not a panic.
	f.Add([]byte(nonSquareSymmetric))
	// Row 2 overflows at x = 1: the multiply is a 422 naming y[1].
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 2 4\n1 1 1\n2 1 1e308\n2 2 1e308\n3 2 1e308\n"))

	s := New(Config{
		// Tight budget: the fuzzer cannot accumulate matrices, and the
		// eviction path gets fuzzed for free.
		MemoryBudget:   1 << 20,
		MaxUploadBytes: 1 << 20,
		Threads:        1,
	})
	defer s.Close()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/matrices", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusCreated, http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("upload: unexpected status %d: %s", w.Code, w.Body.String())
		}
		var resp UploadResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted upload with undecodable response: %v", err)
		}
		x := make([]float64, resp.Cols)
		for i := range x {
			x[i] = 1
		}
		mb, err := json.Marshal(MultiplyRequest{X: x})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		mreq := httptest.NewRequest("POST", "/matrices/"+resp.ID+"/multiply", bytes.NewReader(mb))
		mw := httptest.NewRecorder()
		s.ServeHTTP(mw, mreq)
		// 404 can follow an eviction under the tight budget; anything
		// else must be a clean 200 with a full-length result, or a 422
		// for a product that really overflows to a y JSON cannot carry.
		switch mw.Code {
		case http.StatusNotFound:
			return
		case http.StatusUnprocessableEntity:
			checkNonFiniteRow(t, s, resp.ID, x, mw.Body.String())
			return
		}
		if mw.Code != http.StatusOK {
			t.Fatalf("multiply on admitted matrix: status %d: %s", mw.Code, mw.Body.String())
		}
		var mresp MultiplyResponse
		if err := json.Unmarshal(mw.Body.Bytes(), &mresp); err != nil {
			t.Fatalf("multiply response: %v", err)
		}
		if len(mresp.Y) != resp.Rows {
			t.Fatalf("result has %d rows, matrix has %d", len(mresp.Y), resp.Rows)
		}
	})
}

// FuzzMultiplyBody is the multiply codec's differential test against
// encoding/json, the decoder and encoder it replaces. For any input:
//
//   - whenever parseX accepts it, json.Unmarshal accepts it too and
//     decodes a bitwise-equal x;
//   - read as little-endian float64s, its finite values marshal with
//     json.Marshal into a body parseX accepts with a bitwise-equal x;
//   - appendY formats those same values byte for byte as json.Encoder
//     does.
//
// The checked-in corpus seeds the float64 edge cases: -0, the smallest
// subnormal, 1e-7 (encoding/json's e-07 -> e-7 trim), 1e21 (its
// switch to exponent form), MaxFloat64, and halfway points between
// doubles on both sides of the parser's 19-digit fast path.
func FuzzMultiplyBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// An accepted body holds exactly one element per comma, plus
		// one, or is the empty array.
		for _, n := range []int{0, bytes.Count(data, []byte(",")) + 1} {
			x, bad := parseX(data, n)
			if bad.what != "" {
				continue
			}
			var req MultiplyRequest
			if err := json.Unmarshal(data, &req); err != nil {
				t.Fatalf("codec accepted %q, encoding/json refused it: %v", data, err)
			}
			checkSameBits(t, "codec x vs encoding/json x", x, req.X)
		}

		v := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			if fv := math.Float64frombits(binary.LittleEndian.Uint64(data[i:])); !math.IsInf(fv, 0) && !math.IsNaN(fv) {
				v = append(v, fv)
			}
		}
		body, err := json.Marshal(MultiplyRequest{X: v})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		x, bad := parseX(body, len(v))
		if bad.what != "" {
			t.Fatalf("codec refused json.Marshal output %q: %v", body, bad)
		}
		checkSameBits(t, "codec x vs marshalled x", x, v)

		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(MultiplyResponse{Y: v}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, row := appendY(nil, v)
		if row >= 0 || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendY = %q (row %d), json.Encoder = %q", got, row, want.Bytes())
		}
	})
}

// checkNonFiniteRow requires that a 422 from a multiply on matrix id
// names a row that really is non-finite in A·x, and the first such:
// y is recomputed on the matrix's own executor, so it is bitwise what
// the request computed.
func checkNonFiniteRow(t *testing.T, s *Server, id string, x []float64, body string) {
	t.Helper()
	e, ok := s.reg.get(id)
	if !ok {
		t.Fatalf("422 for matrix %s, which is no longer registered: %s", id, body)
	}
	y := make([]float64, e.format.Rows())
	if err := e.runner.Run(y, x); err != nil {
		t.Fatalf("reference multiply: %v", err)
	}
	for i, v := range y {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			if !strings.Contains(body, fmt.Sprintf("y[%d] ", i)) {
				t.Fatalf("422 body %q does not name y[%d], the first non-finite row", body, i)
			}
			return
		}
	}
	t.Fatalf("422 for a finite product: %s", body)
}

func checkSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !core.SameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
