package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/mmio"
	"spmv/internal/server/faulttest"
)

// TestMultiplyBodyGrammar pins the request grammar at the handler: the
// bodies every client in the repo sends (json.Marshal of a
// MultiplyRequest) and whitespace variants of them are served with
// bitwise the x encoding/json would decode; everything else is a 400,
// including four bodies a lenient JSON decoder would have taken
// (trailing data, the key "X", an unknown member, a duplicate "x").
func TestMultiplyBodyGrammar(t *testing.T) {
	s := newTestServer(t, Config{})
	mtx := faulttest.ValidMMIO(19, 4)
	resp := upload(t, s, mtx, "csr")
	if resp.Cols != 4 {
		t.Fatalf("test matrix has %d columns, want 4", resp.Cols)
	}
	target := "/matrices/" + resp.ID + "/multiply"

	accepted := []string{
		`{"x":[1,2,3,4]}`,
		" \t\r\n{ \"x\" :\n[ 1 ,2, 3 ,\t4 ] }\r\n",
		`{"x":[-0,5e-324,1E+2,-1.5e-3]}`,
		`{"x":[0.1,1e21,1e-7,-2.2250738585072014e-308]}`,
	}
	for _, body := range accepted {
		var req MultiplyRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("table error: %q is not JSON: %v", body, err)
		}
		w := do(s, "POST", target, []byte(body), nil)
		if w.Code != http.StatusOK {
			t.Errorf("%q: status %d, want 200 (%s)", body, w.Code, strings.TrimSpace(w.Body.String()))
			continue
		}
		var got MultiplyResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%q: response: %v", body, err)
		}
		want := refMul(t, mtx, "csr", req.X)
		for i := range want {
			if !core.SameBits(got.Y[i], want[i]) {
				t.Errorf("%q: y[%d] = %v, want %v", body, i, got.Y[i], want[i])
			}
		}
	}

	rejected := []string{
		`{"x":[1,2,3,4]}{}`,             // trailing data
		`{"x":[1,2,3,4]} 5`,             // trailing data
		`{"X":[1,2,3,4]}`,               // case-folded key
		`{"x":[1,2,3,4],"y":[1]}`,       // unknown member
		`{"x":[1,2,3,4],"x":[1,2,3,4]}`, // duplicate member
		`{"x":[NaN,2,3,4]}`,
		`{"x":[Infinity,2,3,4]}`,
		`{"x":[-Infinity,2,3,4]}`,
		`{"x":[01,2,3,4]}`,
		`{"x":[+1,2,3,4]}`,
		`{"x":[.5,2,3,4]}`,
		`{"x":[1.,2,3,4]}`,
		`{"x":[1e400,2,3,4]}`,
		`{"x":[1,2,3,4e]}`,
		`{"x":null}`,
		`null`,
		`{"x":[1,2,3]}`,     // n-1 elements
		`{"x":[1,2,3,4,5]}`, // n+1 elements
		``,
		`{"x":[1,2,3,4`,   // cut off after the last element
		`{"x":[1,2,3,4.2`, // cut off mid-number
		`{"x":["1",2,3,4]}`,
	}
	for _, body := range rejected {
		w := do(s, "POST", target, []byte(body), nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400 (%s)", body, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
}

// TestMultiplyOversizedBody: a body past the multiply limit (32 bytes
// per column plus 4 KiB) is 413 Request Entity Too Large, as an
// oversized upload is; a forged Content-Length on a legitimate body
// changes nothing.
func TestMultiplyOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(18, 30), "csr")
	target := "/matrices/" + resp.ID + "/multiply"

	limit := resp.Cols*32 + 4096
	big := append([]byte(`{"x":[`), bytes.Repeat([]byte(" "), limit)...)
	if w := do(s, "POST", target, big, nil); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", w.Code, strings.TrimSpace(w.Body.String()))
	}

	body, err := json.Marshal(MultiplyRequest{X: testVec(resp.Cols)})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest("POST", target, bytes.NewReader(body))
	req.ContentLength = 1 << 40
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("forged Content-Length: status %d, want 200 (%s)", w.Code, strings.TrimSpace(w.Body.String()))
	}
}

// TestMultiplyForgedContentLength: the body buffer grows only with the
// bytes a client sends. A 1×2^20 matrix with one non-zero allows a
// 32 MiB multiply body; a request declaring that size but sending a
// few bytes must cost the server a small fraction of it.
func TestMultiplyForgedContentLength(t *testing.T) {
	s := newTestServer(t, Config{Threads: 1})
	const cols = 1 << 20
	mtx := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n1 %d 1\n1 1 1\n", cols)
	resp := upload(t, s, []byte(mtx), "csr")
	target := "/matrices/" + resp.ID + "/multiply"
	limit := int64(cols)*32 + 4096

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest("POST", target, strings.NewReader(`{"x":[1]}`))
	req.ContentLength = limit
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("short body: status %d, want 400 (%s)", w.Code, strings.TrimSpace(w.Body.String()))
	}
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > limit/64 {
		t.Fatalf("a %d-byte body declaring %d bytes allocated %d bytes, want under %d",
			len(`{"x":[1]}`), limit, got, limit/64)
	}
}

// TestMultiplyNonFiniteY: a product that overflows has no JSON form.
// The answer is 422 naming the first non-finite row, counted as a
// failure — for a width-1 request and inside a coalesced batch, whose
// finite batchmates are still served.
func TestMultiplyNonFiniteY(t *testing.T) {
	mtx := faulttest.ValidMMIO(20, 30)
	huge := make([]float64, 30)
	for i := range huge {
		huge[i] = 1e308
	}
	wantRow := -1
	for i, v := range refMul(t, mtx, "csr", huge) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			wantRow = i
			break
		}
	}
	if wantRow < 0 {
		t.Fatal("test matrix does not overflow at x = 1e308")
	}
	hugeBody, err := json.Marshal(MultiplyRequest{X: huge})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rowText := fmt.Sprintf("y[%d]", wantRow)

	hooks := &Hooks{}
	s := newTestServer(t, Config{MaxBatch: 4, Hooks: hooks})
	resp := upload(t, s, mtx, "csr")
	target := "/matrices/" + resp.ID + "/multiply"

	w := do(s, "POST", target, hugeBody, nil)
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), rowText) {
		t.Fatalf("k=1: status %d body %q, want 422 naming %s", w.Code, w.Body.String(), rowText)
	}
	if n := s.Metrics().Failures.Load(); n != 1 {
		t.Fatalf("k=1: Failures = %d, want 1", n)
	}

	// Coalesced: the hook stalls execution so the queue fills and the
	// overflowing requests share panels with finite ones.
	hooks.BeforeExecute = faulttest.SlowDown(5 * time.Millisecond)
	const k = 8
	codes := make([]int, k)
	bodies := make([]string, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := hugeBody
			if i%2 == 1 {
				var err error
				if body, err = json.Marshal(MultiplyRequest{X: testVec(resp.Cols)}); err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
			}
			w := do(s, "POST", target, body, map[string]string{"X-Client-ID": string(rune('a' + i))})
			codes[i], bodies[i] = w.Code, w.Body.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		switch {
		case i%2 == 0 && (codes[i] != http.StatusUnprocessableEntity || !strings.Contains(bodies[i], rowText)):
			t.Errorf("batched overflow %d: status %d body %q, want 422 naming %s", i, codes[i], bodies[i], rowText)
		case i%2 == 1 && codes[i] != http.StatusOK:
			t.Errorf("batched finite %d: status %d, want 200", i, codes[i])
		}
	}
	if n := s.Metrics().Failures.Load(); n != 1+k/2 {
		t.Errorf("Failures = %d, want %d", n, 1+k/2)
	}
	widths := s.Metrics().BatchWidths()
	var wide int64
	for w := 2; w < len(widths); w++ {
		wide += widths[w]
	}
	if wide == 0 {
		t.Fatalf("no coalesced batch of width > 1 recorded: %v", widths)
	}
}

// BenchmarkMultiplyWire times one multiply through the handler stack
// without a network — body read and parse, admission, the kernel,
// response format and write — on a Stencil2D(64) matrix (4096 columns)
// with a NormFloat64 x, the shape of the benchmark's serve-wire
// requests. allocs/op counts the whole request, httptest's own
// request and recorder included.
func BenchmarkMultiplyWire(b *testing.B) {
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, matgen.Stencil2D(64)); err != nil {
		b.Fatalf("mmio: %v", err)
	}
	s := New(Config{Threads: 1})
	defer s.Close()
	up := do(s, "POST", "/matrices?format=csr", mtx.Bytes(), nil)
	var resp UploadResponse
	if err := json.Unmarshal(up.Body.Bytes(), &resp); err != nil {
		b.Fatalf("upload: status %d: %v", up.Code, err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, resp.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(MultiplyRequest{X: x})
	if err != nil {
		b.Fatalf("marshal: %v", err)
	}
	target := "/matrices/" + resp.ID + "/multiply"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := do(s, "POST", target, body, nil); w.Code != http.StatusOK {
			b.Fatalf("multiply: status %d", w.Code)
		}
	}
}
