package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spmv"
	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matfile"
	"spmv/internal/matgen"
	"spmv/internal/mmio"
	"spmv/internal/server"
)

// serveDef is one of the two server parts: spmvd behind a real TCP
// listener, loaded by T connections.
type serveDef struct {
	name string
	gen  func(rng *rand.Rand, sc scale) *core.COO // the hosted matrix
	// matfile uploads the hosted matrix as a locally built csr-du
	// container; otherwise it goes up as MatrixMarket text with no
	// format=, so the server's default ingest path runs.
	matfile bool
	// ingest, when non-nil, generates the matrix whose upload is timed
	// as server.upload_s; otherwise the hosted matrix's own upload is.
	ingest func(sc scale) *core.COO
	rate   func(sc scale) float64 // open-loop requests per second
}

var (
	serveWire = serveDef{
		name:   "serve-wire",
		gen:    func(_ *rand.Rand, sc scale) *core.COO { return matgen.Stencil2D(sc.WireGrid) },
		ingest: func(sc scale) *core.COO { return matgen.Stencil2D(sc.SolveGrid) },
		rate:   func(sc scale) float64 { return sc.WireRate },
	}
	serveKernel = serveDef{
		name: "serve-kernel",
		gen: func(rng *rand.Rand, sc scale) *core.COO {
			return matgen.RandomUniform(rng, sc.KernelN, sc.KernelN, sc.KernelPerRow, matgen.Values{})
		},
		matfile: true,
		rate:    func(sc scale) float64 { return sc.KernelRate },
	}
)

// reqBody is one pre-marshalled request with the reply it must get.
type reqBody struct {
	json []byte
	yref []float64
	tol  []float64
}

// client is the load generator's side of the wire: one transport with
// exactly T connections to the one host.
type client struct {
	r     *run
	tr    *tracer // r.tr, or nil while the untraced comparison loop runs
	http  *http.Client
	base  string
	id    string // hosted matrix
	pool  []reqBody
	reqID atomic.Int64
}

// reqTiming is what one request cost the client, by stage.
type reqTiming struct {
	decode    time.Duration // reply decoded and checked
	reqBytes  int
	respBytes int
}

// connState is the per-connection scratch a worker reuses, so the
// generator's own allocation stays out of the server's numbers as far
// as one process allows.
type connState struct {
	buf bytes.Buffer
	out server.MultiplyResponse
}

// multiply sends request i and checks the reply. parent and due place
// its spans in the traced run; a zero due means the request was due
// when it was sent (closed loop, warm-up).
func (c *client) multiply(st *connState, i int, parent int64, due time.Time) (reqTiming, bool) {
	var t reqTiming
	b := &c.pool[i%len(c.pool)]
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	resp, err := c.http.Post(c.base+"/matrices/"+c.id+"/multiply", "application/json", bytes.NewReader(b.json))
	if err != nil {
		c.r.logf("request %d: %v", i, err)
		return t, false
	}
	st.buf.Reset()
	_, err = st.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	read := time.Now()
	ok := err == nil && resp.StatusCode == http.StatusOK
	if ok {
		st.out.Y = st.out.Y[:0]
		ok = json.Unmarshal(st.buf.Bytes(), &st.out) == nil && len(st.out.Y) == len(b.yref) &&
			agrees(st.out.Y, b.yref, b.tol, 1)
	}
	done := time.Now()
	if !ok {
		c.r.logf("request %d: status %d, err %v, or reply failed its check", i, resp.StatusCode, err)
	}
	t = reqTiming{decode: done.Sub(read), reqBytes: len(b.json), respBytes: st.buf.Len()}
	if tr := c.tr; tr != nil {
		id := c.reqID.Add(1)
		rs := tr.add(parent, "client.request", id, due, done)
		if start.After(due) {
			tr.add(rs, "client.late", id, due, start)
		}
		tr.add(rs, "client.roundtrip", id, start, read)
		tr.add(rs, "client.decode", id, read, done)
	}
	return t, ok
}

// closedLoop has T clients each wait for its reply before sending the
// next request, for d, and returns the successful replies per second:
// the median rate over the closedSlice-long slices of d, or the overall
// rate when d holds fewer than two slices.
func (c *client) closedLoop(parent int64, d time.Duration, count bool) (rps float64, sent int) {
	done := make([][]time.Duration, c.r.T) // per worker: when each successful reply was checked
	var sentN atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < c.r.T; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var st connState
			for i := w; time.Now().Before(deadline); i += c.r.T {
				_, ok := c.multiply(&st, i, parent, time.Time{})
				sentN.Add(1)
				if count {
					c.r.op(1, ok)
				}
				if ok {
					done[w] = append(done[w], time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	slices := make([]float64, int(d/closedSlice))
	total := 0
	for _, times := range done {
		total += len(times)
		for _, t := range times {
			if i := int(t / closedSlice); i < len(slices) {
				slices[i] += 1 / closedSlice.Seconds()
			}
		}
	}
	if len(slices) < 2 {
		return float64(total) / elapsed.Seconds(), int(sentN.Load())
	}
	return summarize(slices).Median, int(sentN.Load())
}

// openResult is what one open-loop phase measured, successes only.
type openResult struct {
	latencyMS  []float64 // due time to reply decoded and checked
	latenessMS []float64 // due time to request actually started
	timings    []reqTiming
}

// openLoop executes a fixed schedule: request i is due at start + i/rate
// for i < rate*d, sent by `workers` goroutines that each take the next
// unsent request and wait for its due time. Latency runs from the due
// time, so a stall is charged to every request it delays, and lateness
// (how far behind schedule the generator started a request) is reported
// beside it. do returns false for a failed request, which then has no
// latency.
func openLoop(rate float64, d time.Duration, workers int, do func(w, i int, due time.Time) (reqTiming, bool)) openResult {
	total := int(rate * d.Seconds())
	if total < 1 {
		total = 1
	}
	var next atomic.Int64
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				begun := time.Now()
				t, ok := do(w, i, due)
				done := time.Now()
				if !ok {
					continue
				}
				mu.Lock()
				res.latencyMS = append(res.latencyMS, done.Sub(due).Seconds()*1e3)
				res.latenessMS = append(res.latenessMS, begun.Sub(due).Seconds()*1e3)
				res.timings = append(res.timings, t)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return res
}

func (c *client) openLoop(parent int64, rate float64, d time.Duration) openResult {
	states := make([]connState, c.r.T)
	return openLoop(rate, d, c.r.T, func(w, i int, due time.Time) (reqTiming, bool) {
		t, ok := c.multiply(&states[w], i, parent, due)
		c.r.op(1, ok)
		return t, ok
	})
}

// upload posts body to /matrices and returns the new matrix id.
func (c *client) upload(body []byte) (string, error) {
	resp, err := c.http.Post(c.base+"/matrices", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var up server.UploadResponse
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return "", fmt.Errorf("upload: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		return "", fmt.Errorf("upload reply: %w", err)
	}
	return up.ID, nil
}

func (c *client) remove(id string) error {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/matrices/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete %s: status %d", id, resp.StatusCode)
	}
	return nil
}

// host (re-)uploads the hosted matrix under a fresh registry entry, so
// the server's per-matrix span histograms start empty for the phase
// that follows, and sends warm discarded requests.
func (c *client) host(body []byte, warm int) error {
	if c.id != "" {
		if err := c.remove(c.id); err != nil {
			return err
		}
	}
	id, err := c.upload(body)
	if err != nil {
		return err
	}
	c.id = id
	var st connState
	for i := 0; i < warm; i++ {
		if _, ok := c.multiply(&st, i, 0, time.Time{}); !ok {
			return errors.New("warm-up request failed")
		}
	}
	return nil
}

// snapshot reads GET /metrics.
func (c *client) snapshot() (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("/metrics: %w", err)
	}
	return snap, nil
}

// spanP50 returns the median, in ms, of one of a hosted matrix's server spans.
func spanP50(snap server.MetricsSnapshot, id, name string) float64 {
	return float64(snap.Matrices[id].Spans[name].P50Ns) / 1e6
}

// runServePart runs one server part: set-up (generate, encode, start
// the server, timed uploads, host, warm up), the closed loop, then the
// open loop against a freshly hosted copy.
func (r *run) runServePart(def serveDef) error {
	rng := rand.New(rand.NewSource(r.seed))
	setupStart := time.Now()
	sp := r.tr.start(0, def.name+".setup")

	var c *core.COO
	d := r.layer(sp, "matgen.gen", func() { c = def.gen(rng, r.sc) })
	r.add("matgen.gen_s", d.Seconds())
	var ref core.Format
	err := r.call(sp, "formats.build_csr", "formats.build_csr_s", func() (err error) {
		ref, err = formats.Build("csr", c)
		return err
	})
	if err != nil {
		return fmt.Errorf("build reference csr: %w", err)
	}
	r.ws[def.name] = core.WorkingSetOf(ref)

	// Request bodies are marshalled, and their replies computed, before
	// any clock starts.
	pool := make([]reqBody, bodyPool)
	for i := range pool {
		x := make([]float64, c.Cols())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		pool[i].yref = make([]float64, c.Rows())
		ref.SpMV(pool[i].yref, x)
		pool[i].tol = tolerance(c, x)
		if pool[i].json, err = json.Marshal(server.MultiplyRequest{X: x}); err != nil {
			return err
		}
	}

	// The bytes that host the matrix, and the bytes whose upload is timed.
	var hosted bytes.Buffer
	if def.matfile {
		du, err := r.buildVerified(sp, "csr-du", "csrdu", c)
		if err != nil {
			return err
		}
		if err := r.call(sp, "matfile.write", "matfile.write_s", func() error { return matfile.Write(&hosted, du) }); err != nil {
			return fmt.Errorf("matfile.Write: %w", err)
		}
	} else if err := mmio.Write(&hosted, c); err != nil {
		return fmt.Errorf("mmio.Write: %w", err)
	}
	timed := hosted.Bytes()
	var ingest *core.COO
	if def.ingest != nil {
		d := r.layer(sp, "matgen.gen", func() { ingest = def.ingest(r.sc) })
		r.add("matgen.gen_s", d.Seconds())
		var text bytes.Buffer
		if err := mmio.Write(&text, ingest); err != nil {
			return fmt.Errorf("mmio.Write: %w", err)
		}
		timed = text.Bytes()
	}

	// spmvd behind a real loopback listener, in this process.
	srv := spmv.NewServer(spmv.ServerConfig{
		MemoryBudget: serverMemoryBudget, MaxUploadBytes: serverMaxUploadBytes, Threads: r.T,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: r.T, MaxIdleConnsPerHost: r.T, DisableCompression: true}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		srv.Close()
		<-served
	}()
	cl := &client{r: r, tr: r.tr, http: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		base: "http://" + ln.Addr().String(), pool: pool}

	var upSecs []float64
	for i := 0; i < uploads; i++ {
		// Every upload starts from a heap that holds none of the last one's
		// memory: whether the scavenger had returned it yet made the upload time
		// bimodal (0.33 or 0.45 s for the same bytes).
		debug.FreeOSMemory()
		var id string
		d := r.layer(sp, "server.upload", func() { id, err = cl.upload(timed) })
		r.op(1, err == nil)
		if err != nil {
			return err
		}
		upSecs = append(upSecs, d.Seconds())
		if err := cl.remove(id); err != nil {
			return err
		}
	}
	upload := summarize(upSecs)
	if err := cl.host(hosted.Bytes(), r.sc.Warmup); err != nil {
		return err
	}
	r.tr.end(sp)
	r.setup += time.Since(setupStart)

	// ---- timed phases ----
	tp := r.tr.start(0, def.name+".timed")
	untracedRPS := 0.0
	if r.traced() { // trace.overhead_pct: the same loop without spans, same process
		cl.tr = nil
		settle()
		untracedRPS, _ = cl.closedLoop(0, r.share(shareClosed)/2, false)
		cl.tr = r.tr
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp := r.tr.start(tp, "client.closed_loop")
	rps, sent := cl.closedLoop(cp, r.share(shareClosed), true)
	r.tr.end(cp)
	runtime.ReadMemStats(&after)
	closedSnap, err := cl.snapshot()
	if err != nil {
		return err
	}
	closedID := cl.id

	// A fresh entry for the open loop: its server spans describe that phase alone.
	rehost := time.Now()
	if err := cl.host(hosted.Bytes(), 2*r.T); err != nil {
		return err
	}
	r.setup += time.Since(rehost)
	settle()
	op := r.tr.start(tp, "client.open_loop")
	open := cl.openLoop(op, def.rate(r.sc), r.share(shareOpen))
	r.tr.end(op)
	r.tr.end(tp)
	snap, err := cl.snapshot()
	if err != nil {
		return err
	}

	if !r.traced() {
		r.metrics["serve_rps"] = value{Value: rps, Unit: unitOf("serve_rps"), N: sent}
		lat := summarize(open.latencyMS)
		r.setSummary("req_p50_ms", lat)
		return nil
	}

	// ---- traced run only: the per-layer numbers ----
	id := cl.id
	var spans float64
	for _, name := range []string{"admission", "queue", "coalesce", "execute", "write"} {
		ms := spanP50(snap, id, name)
		r.set("server."+name+"_p50_ms", ms)
		spans += ms
	}
	total := spanP50(snap, id, "total")
	r.set("server.total_p50_ms", total)
	r.set("server.total_p90_ms", float64(snap.Matrices[id].Spans["total"].P90Ns)/1e6)
	r.set("server.unaccounted_p50_ms", total-spans)
	r.set("server.closed_execute_p50_ms", spanP50(closedSnap, closedID, "execute"))
	r.set("server.closed_total_p50_ms", spanP50(closedSnap, closedID, "total"))
	var panels, vectors float64
	for k, n := range snap.CoalesceWidths {
		var width float64
		fmt.Sscan(k, &width)
		panels += float64(n)
		vectors += width * float64(n)
	}
	if panels > 0 {
		r.set("server.coalesce_width_mean", vectors/panels)
	}
	r.set("server.shed", float64(snap.Shed))
	r.set("server.deadline_exceeded", float64(snap.DeadlineExceeded))

	var decode, reqBytes, respBytes []float64
	for _, t := range open.timings {
		decode = append(decode, t.decode.Seconds()*1e3)
		reqBytes = append(reqBytes, float64(t.reqBytes))
		respBytes = append(respBytes, float64(t.respBytes))
	}
	lat := summarize(open.latencyMS)
	dec := summarize(decode)
	r.set("client.decode_ms", dec.Median)
	r.set("client.wire_ms", lat.Median-total-dec.Median)
	r.set("client.req_bytes", mean(reqBytes))
	r.set("client.resp_bytes", mean(respBytes))
	r.set("client.lateness_p90_ms", pct(open.latenessMS, 0.9))
	r.set("client.req_p90_ms", lat.P90)
	r.set("client.req_p99_ms", pct(open.latencyMS, 0.99))
	if sent > 0 {
		r.setNote("runtime.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(sent), "process-wide, includes the client")
	}
	r.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	if untracedRPS > 0 {
		r.set("trace.overhead_pct", 100*(untracedRPS-rps)/untracedRPS)
	}

	// The same bytes through direct calls, outside the server: what is
	// left of server.upload_s is the server's own ingest cost (body read, hash,
	// registry, executor start).
	lp := r.tr.start(0, def.name+".layers")
	defer r.tr.end(lp)
	settle()
	directStart := time.Now()
	if def.matfile {
		if err := r.call(lp, "matfile.read", "matfile.read_s", func() error {
			_, err := matfile.ReadSized(bytes.NewReader(timed), int64(len(timed)))
			return err
		}); err != nil {
			return fmt.Errorf("matfile.ReadSized: %w", err)
		}
	} else {
		var parsed *core.COO
		if err := r.call(lp, "mmio.parse", "mmio.parse_s", func() (err error) {
			parsed, err = mmio.Read(bytes.NewReader(timed))
			return err
		}); err != nil {
			return fmt.Errorf("mmio.Read: %w", err)
		}
		if _, err := r.buildVerified(lp, "csr-du", "csrdu", parsed); err != nil {
			return err
		}
	}
	direct := time.Since(directStart).Seconds()
	r.setSummary("server.upload_s", upload)
	r.set("server.ingest_other_s", upload.Median-direct)
	return nil
}
