package server

// Hooks are fault-injection points for tests and soak harnesses
// (internal/server/faulttest builds on them). Production configs leave
// them nil; every call site nil-checks both the struct and the field,
// so the hooks cost nothing when unset.
type Hooks struct {
	// BeforeExecute runs in the coalescer's execution goroutine right
	// before a batch of the given width is dispatched. A returned error
	// fails the batch; a panic exercises the graceful-degradation path
	// (recovered, counted in Metrics.PanicsRecovered, surfaced as a 500
	// on the batch's requests while the loop and executor stay healthy).
	BeforeExecute func(matrixID string, width int) error
}
