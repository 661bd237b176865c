package repo

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anole/internal/synth"
	"anole/internal/testutil"
)

// TestServerConcurrentFetches hammers both endpoints from many
// goroutines at once: the server serializes the bundle exactly once at
// construction, so every concurrent download must decode to an
// equivalent bundle and an identical manifest. Run with -race.
func TestServerConcurrentFetches(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	probe := fx.Corpus.Frames(synth.Test)[0]
	// Score the probe once up front: the fixture bundle's networks cache
	// activations, so the shared Decision model must not be called from
	// the download goroutines (each downloaded bundle is private).
	want := append([]float64(nil), fx.Bundle.Decision.Scores(probe)...)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Client{BaseURL: ts.URL}
			m, err := c.FetchManifest(context.Background())
			if err != nil {
				t.Errorf("manifest: %v", err)
				return
			}
			if len(m.Models) != fx.Bundle.NumModels() || m.BundleBytes != srv.Manifest().BundleBytes {
				t.Errorf("manifest diverged: %+v", m)
				return
			}
			b, err := c.FetchBundle(context.Background())
			if err != nil {
				t.Errorf("bundle: %v", err)
				return
			}
			if got := b.Decision.Scores(probe); len(got) != len(want) {
				t.Errorf("downloaded bundle ranks %d models, want %d", len(got), len(want))
			} else {
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("downloaded bundle scores diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestClientDoesNotRetryClientErrors: a 404 is definitive; only a
// payload the bundle checksum rejects is fetched again.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	c := Client{BaseURL: ts.URL}
	_, err := c.FetchBundle(context.Background())
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want 404 error, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("client retried a 404 (%d attempts)", got)
	}
}
