package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// nonSquareSymmetric is a 58-byte upload whose symmetric mirror entry
// (3,1) lies outside its 2x3 shape.
const nonSquareSymmetric = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1\n"

// TestNonSquareSymmetricUploadAnswersTwice posts the same malformed
// upload twice over real HTTP. Each must get a 400: the first may not
// drop the connection, and the second may not wait on a build that
// never finished.
func TestNonSquareSymmetricUploadAnswersTwice(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	for attempt := 1; attempt <= 2; attempt++ {
		resp, err := client.Post(ts.URL+"/matrices", "text/plain", strings.NewReader(nonSquareSymmetric))
		if err != nil {
			t.Fatalf("upload %d: %v", attempt, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("upload %d: %v", attempt, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("square")) {
			t.Fatalf("upload %d: status %d %q, want a 400 naming the square rule", attempt, resp.StatusCode, body)
		}
	}
}

// TestBuildPanicReleasesKey: a build that panics surfaces as an error,
// and the key is free for the next build instead of blocking it.
func TestBuildPanicReleasesKey(t *testing.T) {
	r := newRegistry(1 << 30)
	_, _, err := r.getOrBuild("k", func() (*entry, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking build: error %v, want one carrying the panic", err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r.getOrBuild("k", func() (*entry, error) { return nil, errors.New("second") })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || err.Error() != "second" {
			t.Fatalf("second build: error %v, want its own", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second build blocked on the key the panicking build held")
	}
}
