package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"spmv/internal/autotune"
	"spmv/internal/core"
	"spmv/internal/obs"
	"spmv/internal/parallel"
)

// entry is one admitted matrix: the verified built format, its shared
// executor, the coalescer that owns the executor, and per-matrix
// telemetry. One entry serves arbitrarily many concurrent clients.
type entry struct {
	id     string
	format core.Format
	runner parallel.Runner
	rec    *obs.Recorder
	spans  *lifecycleSpans
	size   int64 // format.SizeBytes(), the LRU budget unit
	co     *coalescer
	// tune is the autotuner's decision trace for format=auto uploads
	// (nil otherwise); surfaced through /metrics.
	tune *autotune.Report

	served atomic.Int64
	shed   atomic.Int64

	lru *list.Element // registry.order position; nil once evicted
}

// buildCall is one in-flight singleflight build: concurrent uploads of
// the same content+format block on done and share the result.
type buildCall struct {
	done chan struct{}
	e    *entry
	err  error
}

// registry is the matrix store: content-addressed entries, a
// singleflight build table so N concurrent uploads of the same matrix
// build once, and LRU eviction under a byte budget.
type registry struct {
	budget int64
	// onEvict observes each LRU eviction (after the entry is unlinked,
	// before its coalescer is stopped); the server counts them.
	onEvict func(*entry)

	mu      sync.Mutex
	entries map[string]*entry
	order   *list.List // front = most recently used; values are *entry
	bytes   int64
	builds  map[string]*buildCall
}

func newRegistry(budget int64) *registry {
	return &registry{
		budget:  budget,
		entries: make(map[string]*entry),
		order:   list.New(),
		builds:  make(map[string]*buildCall),
	}
}

// get returns the entry for id, marking it most recently used.
func (r *registry) get(id string) (*entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if ok && e.lru != nil {
		r.order.MoveToFront(e.lru)
	}
	return e, ok
}

// getOrBuild returns the cached entry for key or runs build exactly
// once across concurrent callers. The bool reports a cache hit. A build
// that fails or panics is not cached: its error goes to every waiting
// caller, and the next call builds again.
// Entries evicted while a caller was waiting surface as a miss on the
// caller's next attempt, never as a half-closed entry.
func (r *registry) getOrBuild(key string, build func() (*entry, error)) (*entry, bool, error) {
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		if e.lru != nil {
			r.order.MoveToFront(e.lru)
		}
		r.mu.Unlock()
		return e, true, nil
	}
	if c, ok := r.builds[key]; ok {
		r.mu.Unlock()
		<-c.done
		return c.e, true, c.err
	}
	c := &buildCall{done: make(chan struct{})}
	r.builds[key] = c
	r.mu.Unlock()

	e, err := buildRecovered(build)
	c.e, c.err = e, err

	var evicted []*entry
	r.mu.Lock()
	delete(r.builds, key)
	if err == nil {
		e.lru = r.order.PushFront(e)
		r.entries[key] = e
		r.bytes += e.size
		evicted = r.evictLocked(e)
	}
	r.mu.Unlock()
	close(c.done)
	for _, ev := range evicted {
		if r.onEvict != nil {
			r.onEvict(ev)
		}
		ev.co.stop(errEvicted)
		ev.runner.Close()
	}
	return e, false, err
}

// buildRecovered runs build, turning a panic into an error, so a build
// that panics still releases its key and wakes the callers waiting on
// it instead of leaving them blocked on a build that never finishes.
func buildRecovered(build func() (*entry, error)) (e *entry, err error) {
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, fmt.Errorf("server: recovered panic in build: %v", p)
		}
	}()
	return build()
}

// evictLocked trims least-recently-used entries until the byte budget
// holds, never evicting keep (the entry that just went in). Callers
// stop the returned entries' coalescers outside the lock.
func (r *registry) evictLocked(keep *entry) []*entry {
	var out []*entry
	for r.bytes > r.budget && r.order.Len() > 1 {
		back := r.order.Back()
		e := back.Value.(*entry)
		if e == keep {
			// keep is the only other entry; move on to the next oldest.
			if back.Prev() == nil {
				break
			}
			e = back.Prev().Value.(*entry)
		}
		r.removeLocked(e)
		out = append(out, e)
	}
	return out
}

// removeLocked unlinks e from the map and LRU list.
func (r *registry) removeLocked(e *entry) {
	delete(r.entries, e.id)
	if e.lru != nil {
		r.order.Remove(e.lru)
		e.lru = nil
	}
	r.bytes -= e.size
}

// remove deletes id, returning the entry for the caller to stop.
func (r *registry) remove(id string) (*entry, bool) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		r.removeLocked(e)
	}
	r.mu.Unlock()
	return e, ok
}

// snapshot returns the current entries in no particular order.
func (r *registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	return out
}

// stats returns the entry count and summed bytes.
func (r *registry) stats() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries), r.bytes
}

// drainAll removes every entry and returns them for the caller to
// stop; used by server shutdown.
func (r *registry) drainAll() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		r.removeLocked(e)
		out = append(out, e)
	}
	r.mu.Unlock()
	return out
}
