package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matfile"
	"spmv/internal/matgen"
	"spmv/internal/mmio"
	"spmv/internal/server/faulttest"
)

// newTestServer builds a Server with test-friendly defaults and
// registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Threads == 0 {
		cfg.Threads = 2
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the handler stack without a network.
func do(s *Server, method, target string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// upload posts body and decodes the response, failing the test on a
// non-2xx status.
func upload(t *testing.T, s *Server, body []byte, format string) UploadResponse {
	t.Helper()
	target := "/matrices"
	if format != "" {
		target += "?format=" + format
	}
	w := do(s, "POST", target, body, nil)
	if w.Code != http.StatusCreated && w.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", w.Code, w.Body.String())
	}
	var resp UploadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return resp
}

// multiply posts x and returns the status plus decoded y (nil unless 200).
func multiply(t *testing.T, s *Server, id string, x []float64, hdr map[string]string) (int, []float64) {
	t.Helper()
	body, err := json.Marshal(MultiplyRequest{X: x})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	w := do(s, "POST", "/matrices/"+id+"/multiply", body, hdr)
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	var resp MultiplyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("multiply response: %v", err)
	}
	return w.Code, resp.Y
}

// refMul computes the reference product for an mmio payload.
func refMul(t *testing.T, body []byte, format string, x []float64) []float64 {
	t.Helper()
	c, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("mmio: %v", err)
	}
	f, err := formats.Build(format, c)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	y := make([]float64, f.Rows())
	f.SpMV(y, x)
	return y
}

func testVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 3.5
	}
	return x
}

func TestUploadAndMultiply(t *testing.T) {
	s := newTestServer(t, Config{})
	body := faulttest.ValidMMIO(1, 40)
	resp := upload(t, s, body, "csr-du")
	if resp.Format != "csr-du" || resp.Cached {
		t.Fatalf("unexpected upload response: %+v", resp)
	}
	x := testVec(resp.Cols)
	code, y := multiply(t, s, resp.ID, x, nil)
	if code != http.StatusOK {
		t.Fatalf("multiply: status %d", code)
	}
	want := refMul(t, body, "csr-du", x)
	for i := range want {
		if !core.SameBits(y[i], want[i]) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestUploadAutoFormat drives the format=auto path: the tuner picks
// the format at ingest, multiplication matches the COO reference, and
// the decision surfaces in /metrics.
func TestUploadAutoFormat(t *testing.T) {
	s := newTestServer(t, Config{})
	body := faulttest.ValidMMIO(3, 60)
	resp := upload(t, s, body, "auto")
	if resp.Format == "" {
		t.Fatalf("auto upload reported no format: %+v", resp)
	}
	c, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("mmio: %v", err)
	}
	x := testVec(resp.Cols)
	code, y := multiply(t, s, resp.ID, x, nil)
	if code != http.StatusOK {
		t.Fatalf("multiply: status %d", code)
	}
	want := make([]float64, c.Rows())
	c.SpMV(want, x)
	for i := range want {
		d := y[i] - want[i]
		if d < 0 {
			d = -d
		}
		lim := want[i]
		if lim < 0 {
			lim = -lim
		}
		if d > 1e-9*(1+lim) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}

	snap := s.Snapshot()
	mm, ok := snap.Matrices[resp.ID]
	if !ok {
		t.Fatalf("tuned matrix missing from metrics: %+v", snap.Matrices)
	}
	if mm.Tune == nil {
		t.Fatal("metrics carry no tune decision for a format=auto upload")
	}
	if mm.Tune.Format != resp.Format || mm.Tune.Candidates == 0 || mm.Tune.PredBytes <= 0 {
		t.Errorf("tune decision incomplete: %+v (upload format %q)", mm.Tune, resp.Format)
	}

	// Explicit formats must not grow a tune decision.
	plain := upload(t, s, body, "csr")
	if mmp := s.Snapshot().Matrices[plain.ID]; mmp.Tune != nil {
		t.Errorf("explicit csr upload carries a tune decision: %+v", mmp.Tune)
	}

	// Same content re-uploaded as auto hits the cache.
	again := upload(t, s, body, "auto")
	if !again.Cached || again.ID != resp.ID {
		t.Errorf("auto re-upload missed the cache: %+v", again)
	}
}

func TestUploadMatfile(t *testing.T) {
	s := newTestServer(t, Config{})
	body := faulttest.ValidMatfile(2, 30, "csr-vi")
	resp := upload(t, s, body, "")
	if resp.Format != "csr-vi" {
		t.Fatalf("matfile upload picked format %q, want csr-vi", resp.Format)
	}
	x := testVec(resp.Cols)
	code, y := multiply(t, s, resp.ID, x, nil)
	if code != http.StatusOK || len(y) != resp.Rows {
		t.Fatalf("multiply: status %d, len %d", code, len(y))
	}
	// Explicit mismatching format parameter is a usage error.
	w := do(s, "POST", "/matrices?format=csr", body, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched format: status %d, want 400", w.Code)
	}
}

func TestUploadCacheAndSingleflight(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrentBuilds: 8})
	body := faulttest.ValidMMIO(3, 40)
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(s, "POST", "/matrices?format=csr", body, nil)
			if w.Code == http.StatusCreated || w.Code == http.StatusOK {
				var resp UploadResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil {
					ids[i] = resp.ID
				}
			}
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" || id != ids[0] {
			t.Fatalf("upload %d: id %q, want all equal %q", i, id, ids[0])
		}
	}
	if builds := s.Metrics().Builds.Load(); builds != 1 {
		t.Fatalf("concurrent identical uploads built %d times, want 1", builds)
	}
	// A later identical upload is a pure cache hit.
	resp := upload(t, s, body, "csr")
	if !resp.Cached {
		t.Fatalf("re-upload not served from cache")
	}
}

// stillParses reports whether a mutated payload remains a valid
// matrix by the ingest rules — some mmio text mutations (e.g. a
// truncated final digit) legitimately still parse.
func stillParses(body []byte) bool {
	if bytes.HasPrefix(body, []byte("SPMV")) {
		_, err := matfile.ReadSized(bytes.NewReader(body), int64(len(body)))
		return err == nil
	}
	c, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, err = formats.Build("csr", c)
	return err == nil
}

func TestCorruptUploadsRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	var rejections int
	for _, valid := range [][]byte{
		faulttest.ValidMMIO(4, 30),
		faulttest.ValidMatfile(4, 30, "csr"),
	} {
		for i, corrupt := range faulttest.CorruptUploads(valid) {
			if bytes.Equal(corrupt, valid) {
				continue
			}
			w := do(s, "POST", "/matrices", corrupt, nil)
			if stillParses(corrupt) {
				if w.Code != http.StatusCreated && w.Code != http.StatusOK {
					t.Errorf("benign mutation %d: status %d, want 2xx (%s)",
						i, w.Code, strings.TrimSpace(w.Body.String()))
				}
				continue
			}
			rejections++
			if w.Code != http.StatusBadRequest {
				// A flipped byte inside a matfile payload that still
				// checksums clean is impossible (CRC32); anything
				// accepted here is a hardening hole.
				t.Errorf("corrupt payload %d: status %d, want 400 (%s)",
					i, w.Code, strings.TrimSpace(w.Body.String()))
			}
		}
	}
	if rejections < 20 {
		t.Fatalf("corpus exercised only %d rejections", rejections)
	}
	if rejected := s.Metrics().UploadsRejected.Load(); rejected == 0 {
		t.Fatalf("no rejected uploads counted")
	}
}

func TestAllocBombUploadRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	bomb := faulttest.AllocBombMatfile(faulttest.ValidMatfile(5, 30, "csr"))
	w := do(s, "POST", "/matrices", bomb, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("alloc bomb: status %d, want 400", w.Code)
	}
}

func TestOversizedUploadRejected(t *testing.T) {
	s := newTestServer(t, Config{MaxUploadBytes: 128})
	w := do(s, "POST", "/matrices", faulttest.ValidMMIO(6, 40), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", w.Code)
	}
}

func TestMultiplyValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(7, 30), "csr")
	if code, _ := multiply(t, s, "nope", testVec(resp.Cols), nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	if code, _ := multiply(t, s, resp.ID, testVec(resp.Cols+1), nil); code != http.StatusBadRequest {
		t.Fatalf("wrong x length: status %d, want 400", code)
	}
	w := do(s, "POST", "/matrices/"+resp.ID+"/multiply", []byte("{not json"), nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", w.Code)
	}
}

// TestUnknownFormatRejected covers made-up names and the related-work
// formats the registry no longer carries: each is a 400 naming the
// valid formats, and nothing is built or registered.
func TestUnknownFormatRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := []string{"no-such-format", "bcsr2x2", "bcsr4x4", "vbr", "jds", "cds", "hybrid"}
	for _, name := range bad {
		w := do(s, "POST", "/matrices?format="+name, faulttest.ValidMMIO(8, 30), nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, w.Code)
		}
		for _, valid := range formats.Names() {
			if !strings.Contains(w.Body.String(), valid) {
				t.Errorf("%s: error %q does not list %q", name, w.Body.String(), valid)
			}
		}
	}
	m := s.Metrics()
	if m.Builds.Load() != 0 || m.UploadsRejected.Load() != int64(len(bad)) {
		t.Errorf("builds %d, rejected %d; want 0 and %d",
			m.Builds.Load(), m.UploadsRejected.Load(), len(bad))
	}
	if w := do(s, "GET", "/matrices", nil, nil); strings.TrimSpace(w.Body.String()) != "[]" {
		t.Errorf("registry after rejected uploads: %s", w.Body.String())
	}
}

func TestDeleteMatrix(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(9, 30), "csr")
	if w := do(s, "DELETE", "/matrices/"+resp.ID, nil, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if code, _ := multiply(t, s, resp.ID, testVec(resp.Cols), nil); code != http.StatusNotFound {
		t.Fatalf("multiply after delete: status %d, want 404", code)
	}
	if w := do(s, "DELETE", "/matrices/"+resp.ID, nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", w.Code)
	}
}

// matrixBytes builds the csr form of an mmio payload and reports its
// in-memory size — the unit of the registry budget.
func matrixBytes(t *testing.T, body []byte) int64 {
	t.Helper()
	c, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("mmio: %v", err)
	}
	f, err := formats.Build("csr", c)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return f.SizeBytes()
}

func TestSingleMatrixOverBudgetRejected(t *testing.T) {
	s := newTestServer(t, Config{MemoryBudget: 1, Threads: 1})
	w := do(s, "POST", "/matrices?format=csr", faulttest.ValidMMIO(10, 60), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget matrix: status %d, want 413", w.Code)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget sized to hold roughly two of the three matrices.
	size := matrixBytes(t, faulttest.ValidMMIO(10, 60))
	s2 := newTestServer(t, Config{MemoryBudget: size*2 + size/2, Threads: 1})
	var resps []UploadResponse
	for seed := int64(10); seed < 13; seed++ {
		resps = append(resps, upload(t, s2, faulttest.ValidMMIO(seed, 60), "csr"))
	}
	if ev := s2.Metrics().Evictions.Load(); ev == 0 {
		t.Fatalf("no evictions under budget pressure")
	}
	// The oldest entry is gone; the newest survives.
	if code, _ := multiply(t, s2, resps[0].ID, testVec(resps[0].Cols), nil); code != http.StatusNotFound {
		t.Fatalf("evicted matrix: status %d, want 404", code)
	}
	if code, _ := multiply(t, s2, resps[2].ID, testVec(resps[2].Cols), nil); code != http.StatusOK {
		t.Fatalf("resident matrix: status %d, want 200", code)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, Config{
		Hooks: &Hooks{BeforeExecute: faulttest.SlowDown(200 * time.Millisecond)},
	})
	resp := upload(t, s, faulttest.ValidMMIO(11, 30), "csr")
	code, _ := multiply(t, s, resp.ID, testVec(resp.Cols), map[string]string{"X-Deadline-Ms": "1"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("tiny deadline: status %d, want 504", code)
	}
	if n := s.Metrics().DeadlineExceeded.Load(); n == 0 {
		t.Fatalf("deadline not counted")
	}
}

func TestPerClientFairness(t *testing.T) {
	s := newTestServer(t, Config{
		MaxPerClient: 1,
		Hooks:        &Hooks{BeforeExecute: faulttest.SlowDown(100 * time.Millisecond)},
	})
	resp := upload(t, s, faulttest.ValidMMIO(12, 30), "csr")
	x := testVec(resp.Cols)
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = multiply(t, s, resp.ID, x, map[string]string{"X-Client-ID": "greedy"})
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("fairness cap: ok=%d shed=%d, want both nonzero", ok, shed)
	}
}

func TestExecutionFaultIs500PoolStaysHealthy(t *testing.T) {
	s := newTestServer(t, Config{
		Hooks: &Hooks{BeforeExecute: faulttest.PanicEvery(1)},
	})
	resp := upload(t, s, faulttest.ValidMMIO(13, 30), "csr")
	x := testVec(resp.Cols)
	if code, _ := multiply(t, s, resp.ID, x, nil); code != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500", code)
	}
	if n := s.Metrics().PanicsRecovered.Load(); n != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", n)
	}
	// Disarm the fault: the same matrix keeps serving.
	s.cfg.Hooks.BeforeExecute = nil
	if code, _ := multiply(t, s, resp.ID, x, nil); code != http.StatusOK {
		t.Fatalf("after recovered panic: status %d, want 200", code)
	}
}

func TestDrainRejectsNewServesQueued(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(14, 30), "csr")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, _ := multiply(t, s, resp.ID, testVec(resp.Cols), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("multiply after drain: status %d, want 503", code)
	}
	if w := do(s, "POST", "/matrices", faulttest.ValidMMIO(15, 30), nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("upload after drain: status %d, want 503", w.Code)
	}
	if w := do(s, "GET", "/healthz", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d, want 503", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(16, 30), "csr")
	if code, _ := multiply(t, s, resp.ID, testVec(resp.Cols), nil); code != http.StatusOK {
		t.Fatalf("multiply failed")
	}
	w := do(s, "GET", "/metrics", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap.Served != 1 || snap.RegistryEntries != 1 {
		t.Fatalf("snapshot: served=%d entries=%d", snap.Served, snap.RegistryEntries)
	}
	mm, ok := snap.Matrices[resp.ID]
	if !ok || mm.Obs.Runs == 0 {
		t.Fatalf("per-matrix metrics missing or empty: %+v", mm)
	}
	if snap.CoalesceWidths["1"] == 0 {
		t.Fatalf("width-1 batch not recorded: %v", snap.CoalesceWidths)
	}
}

func TestPprofEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(s, "GET", "/debug/pprof/", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("pprof index: status %d", w.Code)
	}
}

// float32Exact returns c with every value rounded to float32, so that
// csr32's single-precision value stream multiplies exactly like the
// float64 formats.
func float32Exact(c *core.COO) *core.COO {
	out := core.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		out.Add(i, j, float64(float32(v)))
	}
	out.Finalize()
	return out
}

// TestEveryRegistryNameServes uploads a symmetric and a skewed matrix
// under every registry name and format=auto: each upload starts the
// executor its format supports (sym-csr and csc have no row split) and
// multiplies like the triplet reference. A format that cannot
// represent a matrix is refused as a bad upload, never a 500.
func TestEveryRegistryNameServes(t *testing.T) {
	cases := []struct {
		name   string
		c      *core.COO
		refuse map[string]bool // names whose builder rejects the matrix
	}{
		{name: "symmetric", c: matgen.Symmetrize(matgen.FEMLike(rand.New(rand.NewSource(1)), 2000, 5, matgen.Values{}))},
		// One row ~8x the mean: past the tuner's skew threshold, inside
		// ELLPACK's fill bound, symmetric so sym-csr applies too.
		{name: "skewed", c: matgen.Symmetrize(matgen.SkewedRows(rand.New(rand.NewSource(22)), 2000, 4, 17, 0.0075, matgen.Values{}))},
		// The heavy-row pathology: 40% of the non-zeros in one row.
		{
			name:   "heavy-row",
			c:      matgen.SkewedRows(rand.New(rand.NewSource(22)), 2000, 4, 17, 0.4, matgen.Values{}),
			refuse: map[string]bool{"ell": true, "sym-csr": true},
		},
	}
	s := newTestServer(t, Config{})
	for _, tc := range cases {
		c := float32Exact(tc.c)
		var body bytes.Buffer
		if err := mmio.Write(&body, c); err != nil {
			t.Fatal(err)
		}
		x := testVec(c.Cols())
		want := make([]float64, c.Rows())
		c.SpMV(want, x)
		for _, name := range append(formats.Names(), "auto") {
			w := do(s, "POST", "/matrices?format="+name, body.Bytes(), nil)
			if tc.refuse[name] {
				if w.Code != http.StatusBadRequest {
					t.Errorf("%s/%s: status %d, want 400: %s", tc.name, name, w.Code, w.Body.String())
				}
				continue
			}
			if w.Code != http.StatusCreated {
				t.Errorf("%s/%s: status %d, want 201: %s", tc.name, name, w.Code, w.Body.String())
				continue
			}
			var resp UploadResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s/%s: upload response: %v", tc.name, name, err)
			}
			code, y := multiply(t, s, resp.ID, x, nil)
			if code != http.StatusOK {
				t.Errorf("%s/%s (%s): multiply status %d", tc.name, name, resp.Format, code)
			} else {
				for i := range want {
					if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Errorf("%s/%s (%s): y[%d] = %v, want %v", tc.name, name, resp.Format, i, y[i], want[i])
						break
					}
				}
			}
			do(s, "DELETE", "/matrices/"+resp.ID, nil, nil)
		}
	}
}
