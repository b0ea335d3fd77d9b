#!/bin/sh
# Repo verification gate: static checks, the full test suite under the
# race detector, and a short fuzz smoke over the decode-hardening
# targets. Set FUZZTIME to lengthen the fuzz phase (default 30s per
# target); FUZZTIME=0 skips it.
set -eu

cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-30s}"

echo "== gofmt -l ."
# Any file gofmt would rewrite fails the gate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify.sh: gofmt -l lists files that are not formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== race"
# Second pass over the concurrency-heavy packages: the executors' one
# shared worker pool (start channels, barrier, run lock, Close and the
# telemetry of failed runs, driven on all three executors, the row
# executor also cut into many small units, by the closeHarness and
# failed-run tests; the row units' claim counter under the executor
# lattice and schedule-permutation tests) and the telemetry layer
# (collectors report from worker goroutines while readers snapshot
# concurrently). -count=2 defeats
# the test cache and catches ordering-dependent races. internal/sym
# rides along for the tree-reduced scatter executor's bitwise test;
# internal/solver and internal/vec for CG's sweeps on the executor's
# pool (Executor.Each) and their thread-count-independent bits.
go test -race -count=2 ./internal/parallel/... ./internal/obs/... ./internal/sym/... \
	./internal/solver/... ./internal/vec/...

echo "== BenchmarkUnitShapes smoke"
# The CSR-DU decode-cost benchmark (7-nnz u16, the same rows repeated
# one column right as REP units, 5-nnz u8 then 2-nnz u16, 255-nnz u8,
# 8-nnz u32 units, csr alongside, ~150 MB working sets):
# serial ns/nnz, and ns/nnz-vec of the csr, csr-du and csr-du-vi k=8
# panel kernels.
# One iteration each so it cannot rot; measure with -benchtime=10x -count=5.
go test -run '^$' -bench '^BenchmarkUnitShapes$' -benchtime=1x ./internal/csrdu/

echo "== BenchmarkRowSchedule smoke"
# The row executor's unit budget: one CSR multiply on the benchmark's
# four matrix shapes, scaled down, at unitNNZ and at a quarter and four
# times that; reports ms/op. One iteration each so it cannot rot;
# measure with -benchtime=20x -count=5.
go test -run '^$' -bench '^BenchmarkRowSchedule$' -benchtime=1x ./internal/parallel/

echo "== BenchmarkFinalize smoke"
# COO.Finalize on four orders of arrival (7-point stencil rows with the
# diagonal first, 1024 random columns per row, one 1.5 M-entry row,
# column-major), one iteration each; reports ns/nnz.
go test -run '^$' -bench '^BenchmarkFinalize$' -benchtime=1x ./internal/core/

echo "== BenchmarkSolverCG smoke"
# CG end to end, including the out-of-cache Stencil3D cells (threads 1
# and GOMAXPROCS) that report ms/iter and vec-ms/iter; one solve each.
go test -run '^$' -bench '^BenchmarkSolverCG$' -benchtime=1x .

echo "== spmvbench -rhs smoke"
# Batched multi-vector path end to end: fused kernels + RunBatch +
# the RHS sweep printer, at a scale that finishes in seconds.
go run ./cmd/spmvbench -rhs 4 -scale 0.02 -iters 2 -threads 2 > /dev/null

echo "== spmvbench -profile smoke"
# Structural profiling end to end: builds the cell, measures it, and
# emits the FormatProfile JSON with bandwidth attribution.
go run ./cmd/spmvbench -profile -format csr-du -scale 0.02 -iters 2 -threads 2 > /dev/null

echo "== spmvbench archive/compare smoke"
# Benchmark archive round trip: write a tiny archive, then compare a
# fresh run against it. The 10x slowdown threshold checks the plumbing
# (load, match, t-test, verdict printing), not the host's noise floor.
ARCHDIR=$(mktemp -d)
trap 'rm -rf "$ARCHDIR"' EXIT
go run ./cmd/spmvbench -scale 0.02 -iters 2 -threads 2 -samples 2 \
	-archive "$ARCHDIR" > /dev/null
go run ./cmd/spmvbench -scale 0.02 -iters 2 -threads 2 -samples 2 \
	-slowdown 10 -compare "$ARCHDIR"/BENCH_*.json > /dev/null

echo "== spmvbench -auto smoke"
# Autotuner end to end: the short list timed against CSR, the chosen
# format structurally verified (the command exits non-zero if the tuned
# build fails Verify), and the TuneReport decision traces emitted as
# JSON.
go run ./cmd/spmvbench -auto -matrix blockdiag-s-q16,random-s \
	-scale 0.02 -threads 2 > "$ARCHDIR/auto.json" 2> /dev/null
grep -q '"chosen"' "$ARCHDIR/auto.json" || {
	echo "verify.sh: spmvbench -auto produced no TuneReport" >&2
	exit 1
}

echo "== spmvbench roofline smoke"
# Roofline end to end: a budgeted STREAM probe writes ROOF_<host>.json,
# then a measured run is anchored to it — the table must carry the
# %roof column and name the probe as its model source.
go run ./cmd/spmvbench -roofprobe -probe-ms 300 -threads 2 \
	-roofdir "$ARCHDIR" > /dev/null
go run ./cmd/spmvbench -roofline -roofdir "$ARCHDIR" \
	-scale 0.02 -iters 2 -threads 2 -experiment table2 \
	> "$ARCHDIR/roofline.txt"
grep -q '%roof' "$ARCHDIR/roofline.txt" || {
	echo "verify.sh: spmvbench -roofline printed no %roof column" >&2
	exit 1
}
grep -q 'model: probe' "$ARCHDIR/roofline.txt" || {
	echo "verify.sh: spmvbench -roofline did not use the probe archive" >&2
	exit 1
}

echo "== spmvd selfcheck"
# Server smoke, end to end over real TCP against a loopback daemon:
# upload admitted and queryable, multiply matches the reference
# product, corrupt upload rejected with 400, deterministic overload
# sheds with 429, and SIGTERM drains cleanly (the real signal path —
# the daemon signals itself).
go run ./cmd/spmvd -selfcheck -quiet

echo "== BenchmarkMultiplyWire smoke"
# One multiply through the handler stack on a Stencil2D(64) matrix:
# body read and parse, kernel, response format and write. Reports
# ns/op and allocs/op; measure with -benchtime=2000x -count=5.
go test -run '^$' -bench '^BenchmarkMultiplyWire$' -benchtime=1x ./internal/server/

echo "== BenchmarkWireCodec smoke"
# The codec's float64 conversions alone: parse and format 4096
# NormFloat64 values (the benchmark's x); reports ns/value. Measure
# with -benchtime=2000x -count=5.
go test -run '^$' -bench '^BenchmarkWireCodec$' -benchtime=1x ./internal/server/

echo "== server soak (race)"
# The fault-injection soak under the race detector: sustained
# overload with injected kernel panics, corrupt uploads and client
# disconnects must shed load, recover every panic, leak no goroutines
# and drain cleanly.
go test -race -run "^TestSoakFaultInjection$" ./internal/server/

echo "== spmvlint"
# Layer 1: the seven source rules over the typed AST (panics,
# droppederr, floateq, hotpath, goroleak, wgbalance, lockbalance); a
# finding cannot be suppressed. Layer 2: compile gate diffing -m=1 -d=ssa/check_bce
# diagnostics against the checked-in baselines — a new bounds check or
# heap allocation in a hot kernel fails here. Layer 3: alloc gate —
# any new request-path heap allocation in internal/server or
# internal/parallel fails.
go run ./cmd/spmvlint ./...

if [ "$FUZZTIME" != "0" ]; then
	# Each decoder target asserts: if the decoder accepts the input,
	# the matrix verifies clean and its SpMV matches the reference CSR.
	# FuzzReadVI holds the csr-vi and csr-du-vi readers to the values
	# their width/val_ind/unique triple codes for, under both value
	# codecs, bitwise through every kernel.
	# FuzzCanonical holds every reader (csr, csr-vi, csr-du,
	# csr-du-rle, csr-du-vi, dcsr) to loading what was stored: an
	# accepted file writes back to its own bytes and multiplies bitwise
	# like a reference over its stored order.
	# FuzzMultiplyBody holds the multiply wire codec to encoding/json:
	# what it accepts decodes bitwise alike, and what it writes is
	# byte-identical.
	# FuzzWireFloat holds the codec's number parser to the RFC 8259
	# grammar plus strconv.ParseFloat (same end, same bits) and its
	# number formatter to encoding/json's bytes.
	# FuzzReadStream holds the Matrix Market reader to the
	# field-splitting parser it replaced: what it accepts, the old
	# parser accepts with the same entries, bit for bit.
	# FuzzFinalize holds COO.Finalize to a stable comparison sort on
	# (row, column) followed by an in-order fold, bit for bit.
	# Note: the server target's exec counter can look frozen for up to
	# a minute at a time — that is the fuzz engine minimizing a new
	# interesting input (default -fuzzminimizetime=60s), not a hang.
	for target in \
		"spmv/internal/csrdu FuzzFromRaw" \
		"spmv/internal/dcsr FuzzFromRaw" \
		"spmv/internal/matfile FuzzRead" \
		"spmv/internal/matfile FuzzReadVI" \
		"spmv/internal/matfile FuzzCanonical" \
		"spmv/internal/mmio FuzzReadStream" \
		"spmv/internal/core FuzzFinalize" \
		"spmv/internal/server FuzzServeUpload" \
		"spmv/internal/server FuzzMultiplyBody" \
		"spmv/internal/server FuzzWireFloat"; do
		pkg=${target% *}
		fn=${target#* }
		echo "== go test -fuzz=$fn -fuzztime=$FUZZTIME $pkg"
		go test -run "^$fn\$" -fuzz "^$fn\$" -fuzztime "$FUZZTIME" "$pkg"
	done
fi

echo "== structural debt"
# ROADMAP's size measure: non-test, non-testdata Go source lines.
echo "non-test .go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

echo "verify.sh: all checks passed"
