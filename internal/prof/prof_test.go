package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/obs"
)

func testCOO(t *testing.T) *core.COO {
	t.Helper()
	// Quantized values keep CSR-VI's val_ind narrow and the band keeps
	// every format (incl. csr16's 2-byte columns) constructible.
	return matgen.Banded(rand.New(rand.NewSource(7)), 4000, 25, 6, matgen.Values{Unique: 64})
}

// TestStreamsReconcileWithTrafficModel pins the acceptance criterion:
// for every registered format the profiled stream bytes sum exactly to
// obs.BytesPerSpMV — the traffic model and the profile itemization
// never disagree.
func TestStreamsReconcileWithTrafficModel(t *testing.T) {
	required := map[string]bool{"csr": true, "csr-du": true, "csr-vi": true, "csr-du-vi": true}
	for _, name := range formats.Names() {
		c := testCOO(t)
		f, err := formats.Build(name, c)
		if err != nil {
			// Some formats reject unsuitable matrices (sym-csr needs
			// symmetry); the reconciliation matters wherever a format
			// actually builds, and always for the paper's four.
			if required[name] {
				t.Fatalf("%s: %v", name, err)
			}
			t.Logf("%s: skipped: %v", name, err)
			continue
		}
		p := New(f)
		var sum int64
		for _, s := range p.Streams {
			sum += s.Bytes
		}
		want := obs.BytesPerSpMV(f)
		if sum != want {
			t.Errorf("%s: stream bytes sum %d != BytesPerSpMV %d (streams %+v)",
				name, sum, want, p.Streams)
		}
		if p.WorkingSet != want {
			t.Errorf("%s: WorkingSet %d != BytesPerSpMV %d", name, p.WorkingSet, want)
		}
		if p.MatrixBytes != f.SizeBytes() {
			t.Errorf("%s: MatrixBytes %d != SizeBytes %d", name, p.MatrixBytes, f.SizeBytes())
		}
	}
}

// TestProfileStructuralLegs checks the format-specific sections: the
// DU histogram totals match the encoder's unit count, VI carries the
// unique table.
func TestProfileStructuralLegs(t *testing.T) {
	c := testCOO(t)

	duf, err := formats.Build("csr-du", c)
	if err != nil {
		t.Fatal(err)
	}
	p := New(duf)
	if p.DU == nil {
		t.Fatal("csr-du profile has no DU section")
	}
	classTotal := 0
	for _, n := range p.DU.PerClass {
		classTotal += n
	}
	if classTotal+p.DU.RLEUnits != p.DU.Units || p.DU.Units == 0 {
		t.Errorf("DU unit histogram total %d+%d != units %d",
			classTotal, p.DU.RLEUnits, p.DU.Units)
	}
	if p.VI != nil {
		t.Error("csr-du profile has a VI section")
	}

	vif, err := formats.Build("csr-vi", c)
	if err != nil {
		t.Fatal(err)
	}
	p = New(vif)
	if p.VI == nil || p.VI.UniqueValues == 0 || p.VI.IndexWidth != 1 {
		t.Errorf("csr-vi profile VI section = %+v, want 64-ish uniques at width 1", p.VI)
	}

	if p.VI != nil && p.VI.Codec != "dictionary u8" {
		t.Errorf("csr-vi codec %q, want dictionary u8", p.VI.Codec)
	}

	dvf, err := formats.Build("csr-du-vi", c)
	if err != nil {
		t.Fatal(err)
	}
	p = New(dvf)
	if p.DU == nil || p.VI == nil {
		t.Error("csr-du-vi profile missing DU or VI section")
	}
}

// TestProfileReportsPlainCodec: on all-distinct values csr-vi keeps the
// plain codec, and its profile says so — a values stream at CSR's size,
// codec "plain" beside TTU and Applicable in the JSON and the text.
func TestProfileReportsPlainCodec(t *testing.T) {
	c := matgen.Banded(rand.New(rand.NewSource(8)), 2000, 9, 6, matgen.Values{})
	f, err := formats.Build("csr-vi", c)
	if err != nil {
		t.Fatal(err)
	}
	p := New(f)
	if p.VI == nil || p.VI.Codec != "plain" || p.VI.IndexWidth != 0 || p.VI.Applicable {
		t.Fatalf("VI section %+v, want the plain codec", p.VI)
	}
	if p.MatrixBytes != p.CSRBytes || p.CompressionRatio != 1 {
		t.Errorf("plain csr-vi is %d bytes, ratio %v; want CSR's %d", p.MatrixBytes, p.CompressionRatio, p.CSRBytes)
	}
	names := ""
	for _, s := range p.Streams {
		names += s.Name + " "
	}
	if names != "row_ptr col_ind values x y " {
		t.Errorf("streams %q, want CSR's", names)
	}
	var js, txt bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := p.Fprint(&txt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js.Bytes(), []byte(`"codec": "plain"`)) {
		t.Errorf("JSON has no plain codec:\n%s", js.Bytes())
	}
	if !bytes.Contains(txt.Bytes(), []byte("value codec plain")) {
		t.Errorf("text has no plain codec:\n%s", txt.Bytes())
	}
}

// TestAttribute checks the predicted-vs-measured join: fractions sum
// to 1, per-stream bandwidths sum to the total, telemetry is copied.
func TestAttribute(t *testing.T) {
	c := testCOO(t)
	f, err := formats.Build("csr-du", c)
	if err != nil {
		t.Fatal(err)
	}
	p := New(f)
	last := &obs.RunStat{
		Partition: "row", Vectors: 1, Wall: 2 * time.Millisecond,
		Chunks: []obs.ChunkStat{
			{Worker: 0, Lo: 0, Hi: 2000, NNZ: 12000, Busy: time.Millisecond},
			{Worker: 1, Lo: 2000, Hi: 4000, NNZ: 12000, Busy: time.Millisecond},
		},
	}
	a := Attribute(p, 1e-3, last)
	if p.Attribution != a {
		t.Error("Attribute did not store the attribution on the profile")
	}
	if a.PredictedBytes != p.WorkingSet {
		t.Errorf("PredictedBytes %d != WorkingSet %d", a.PredictedBytes, p.WorkingSet)
	}
	fracSum, gbpsSum := 0.0, 0.0
	for _, s := range a.Streams {
		fracSum += s.Frac
		gbpsSum += s.GBps
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("stream fractions sum to %v, want 1", fracSum)
	}
	if math.Abs(gbpsSum-a.GBps) > 1e-9*a.GBps {
		t.Errorf("stream GBps sum %v != total %v", gbpsSum, a.GBps)
	}
	if a.Threads != 2 || a.TimeImbalance < 1 || a.NNZImbalance < 1 {
		t.Errorf("telemetry not copied: %+v", a)
	}
}

// TestProfileJSONAndText checks both renderings stay well-formed.
func TestProfileJSONAndText(t *testing.T) {
	c := testCOO(t)
	f, err := formats.Build("csr-du-vi", c)
	if err != nil {
		t.Fatal(err)
	}
	p := New(f)
	Attribute(p, 1e-3, nil)

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back FormatProfile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("profile JSON does not round-trip: %v", err)
	}
	if back.Format != "csr-du-vi" || len(back.Streams) != len(p.Streams) {
		t.Errorf("round-trip lost data: %+v", back)
	}

	buf.Reset()
	if err := p.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"format csr-du-vi", "stream ctl", "csr-vi:", "traffic"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("text rendering missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSeries checks ordering, the bound, and the drift summary.
func TestSeries(t *testing.T) {
	s := NewSeries(3)
	stat := func(busy0, busy1 time.Duration) *obs.RunStat {
		return &obs.RunStat{
			Partition: "row", Vectors: 1, Wall: busy0 + busy1,
			Chunks: []obs.ChunkStat{
				{Worker: 0, NNZ: 10, Busy: busy0},
				{Worker: 1, NNZ: 10, Busy: busy1},
			},
		}
	}
	// Two balanced runs, then increasingly skewed ones (last dropped).
	s.RunDone(stat(time.Millisecond, time.Millisecond))
	s.RunDone(stat(time.Millisecond, time.Millisecond))
	s.RunDone(stat(3*time.Millisecond, time.Millisecond))
	s.RunDone(stat(4*time.Millisecond, time.Millisecond))

	doc := s.Doc()
	if doc.Summary.Runs != 3 || doc.Summary.Dropped != 1 {
		t.Fatalf("runs=%d dropped=%d, want 3,1", doc.Summary.Runs, doc.Summary.Dropped)
	}
	for i, p := range doc.Points {
		if p.Run != i {
			t.Errorf("point %d has run index %d", i, p.Run)
		}
		if len(p.BusyNS) != 2 {
			t.Errorf("point %d has %d busy entries", i, len(p.BusyNS))
		}
	}
	if doc.Summary.ImbalanceDrift <= 0 {
		t.Errorf("skewed tail should drift positive, got %v", doc.Summary.ImbalanceDrift)
	}
	if doc.Summary.MaxImbalance < doc.Summary.MeanImbalance {
		t.Errorf("max %v < mean %v", doc.Summary.MaxImbalance, doc.Summary.MeanImbalance)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SeriesDoc
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("series JSON does not round-trip: %v", err)
	}
	if len(back.Points) != 3 {
		t.Errorf("round-trip lost points: %d", len(back.Points))
	}
}
