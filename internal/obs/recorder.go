package obs

import (
	"sync"
	"time"
)

// Recorder is the standard Collector: it accumulates run counts, wall
// and busy time, and imbalance statistics, and keeps a copy of the most
// recent RunStat. It is safe for concurrent use — executors report from
// their Run goroutines while an expvar endpoint or a progress printer
// reads a Snapshot.
type Recorder struct {
	mu sync.Mutex

	runs      int
	vectors   int
	wall      time.Duration
	busy      time.Duration
	sumTimeIm float64
	maxTimeIm float64
	last      RunStat
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RunDone implements Collector.
func (r *Recorder) RunDone(s *RunStat) {
	im := s.TimeImbalance()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	if s.Vectors > 1 {
		r.vectors += s.Vectors
	} else {
		r.vectors++ // legacy producers leave Vectors zero
	}
	r.wall += s.Wall
	r.busy += s.Busy()
	r.sumTimeIm += im
	if im > r.maxTimeIm {
		r.maxTimeIm = im
	}
	r.last = RunStat{Partition: s.Partition, Vectors: s.Vectors, Wall: s.Wall,
		Err:    s.Err,
		Chunks: append([]ChunkStat(nil), s.Chunks...)}
}

// Snapshot is a point-in-time summary of a Recorder.
type Snapshot struct {
	// Runs is the number of completed Run calls observed.
	Runs int `json:"runs"`
	// Vectors is the total number of result vectors those runs
	// produced: a scalar Run adds 1, a RunBatch adds its panel width.
	// Wall/Vectors is the mean seconds per result vector — the honest
	// denominator when batched and scalar runs are mixed.
	Vectors int `json:"vectors"`
	// Wall is the summed wall time of those runs; Wall/Runs is the
	// mean seconds per SpMV as the executor saw it.
	Wall time.Duration `json:"wall_ns"`
	// Busy is the summed worker busy time across all runs.
	Busy time.Duration `json:"busy_ns"`
	// MeanTimeImbalance and MaxTimeImbalance summarize the measured
	// per-run load imbalance (1.0 = perfect).
	MeanTimeImbalance float64 `json:"mean_time_imbalance"`
	MaxTimeImbalance  float64 `json:"max_time_imbalance"`
	// Last is the most recent run's full telemetry (per-chunk times).
	Last RunStat `json:"last"`
}

// Snapshot returns a consistent copy of the accumulated statistics.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Runs: r.runs, Vectors: r.vectors, Wall: r.wall, Busy: r.busy,
		MaxTimeImbalance: r.maxTimeIm,
		Last: RunStat{Partition: r.last.Partition, Vectors: r.last.Vectors,
			Wall: r.last.Wall, Err: r.last.Err,
			Chunks: append([]ChunkStat(nil), r.last.Chunks...)},
	}
	if r.runs > 0 {
		s.MeanTimeImbalance = r.sumTimeIm / float64(r.runs)
	}
	return s
}

// Runs returns the number of completed runs observed so far.
func (r *Recorder) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// Reset clears the accumulated statistics.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs, r.vectors, r.wall, r.busy = 0, 0, 0, 0
	r.sumTimeIm, r.maxTimeIm = 0, 0
	r.last = RunStat{}
}

// SecsPerRun returns the mean wall seconds per observed run, 0 when
// nothing has been recorded.
func (r *Recorder) SecsPerRun() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runs == 0 {
		return 0
	}
	return r.wall.Seconds() / float64(r.runs)
}
