package repo

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"anole/internal/testutil"
)

// truncatingHandler serves the inner handler's responses but cuts the
// first `cut` bodies short mid-stream: the advertised Content-Length is
// honest, the bytes are not, so the client's read fails partway.
type truncatingHandler struct {
	inner http.Handler
	cut   atomic.Int64
}

func (h *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.cut.Add(-1) < 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.Code)
	// Write half the payload and return: the server closes the
	// connection with the response incomplete.
	w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func TestClientRejectsMidStreamTruncation(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	h := &truncatingHandler{inner: srv.Handler()}
	h.cut.Store(1)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := Client{BaseURL: ts.URL}
	if _, err := c.FetchBundle(context.Background()); err == nil {
		t.Fatal("truncated fetch succeeded")
	}
	// The next, whole response is served.
	b, err := c.FetchBundle(context.Background())
	if err != nil {
		t.Fatalf("whole response after a truncated one: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestCarriesContentDigests(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := Client{BaseURL: ts.URL}
	m, err := c.FetchManifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BundleSHA256) != 64 {
		t.Fatalf("bundle digest %q, want 64 hex chars", m.BundleSHA256)
	}
	if _, _, data := getTagged(t, ts.URL+"/v1/bundle", ""); digestFor(data) != m.BundleSHA256 {
		t.Fatal("bundle digest does not match the served payload")
	}
	if len(m.Models) == 0 {
		t.Fatal("manifest lists no models")
	}
	for _, mm := range m.Models {
		if len(mm.SHA256) != 64 {
			t.Fatalf("model %q digest %q, want 64 hex chars", mm.Name, mm.SHA256)
		}
		status, _, data := getTagged(t, ts.URL+"/v1/model/"+mm.Name, "")
		if status != http.StatusOK || len(data) == 0 {
			t.Fatalf("model %q: status %d, %d bytes", mm.Name, status, len(data))
		}
		if digestFor(data) != mm.SHA256 {
			t.Fatalf("model %q payload does not match its manifest digest", mm.Name)
		}
	}
}

// corruptingHandler flips one byte in the first `bad` response bodies,
// preserving length — only a content checksum can catch it.
type corruptingHandler struct {
	inner http.Handler
	bad   atomic.Int64
	hits  atomic.Int64
}

func (h *corruptingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.hits.Add(1)
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if h.bad.Add(-1) >= 0 && len(body) > 0 {
		body = bytes.Clone(body)
		body[len(body)/2] ^= 0x01
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestClientBundleChecksumQuarantine(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	h := &corruptingHandler{inner: srv.Handler()}
	ts := httptest.NewServer(h)
	defer ts.Close()

	// The bundle format's own checksum rejects the damaged payload; the
	// client discards it and fetches again.
	h.bad.Store(1)
	c := Client{BaseURL: ts.URL}
	b, err := c.FetchBundle(context.Background())
	if err != nil {
		t.Fatalf("refetch after a rejected bundle failed: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.hits.Load(); got != 2 {
		t.Fatalf("server saw %d fetches, want 2 (corrupt + whole)", got)
	}

	// Persistent corruption: every payload is rejected, the budget is
	// spent, and corrupt bytes are never returned.
	h.bad.Store(1 << 30)
	h.hits.Store(0)
	if _, err := c.FetchBundle(context.Background()); err == nil {
		t.Fatal("persistently corrupted bundle fetch succeeded")
	} else if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("error %q does not say the bundle was rejected", err)
	}
	if got := h.hits.Load(); got != bundleRefetches+1 {
		t.Fatalf("server saw %d fetches, want %d", got, bundleRefetches+1)
	}
}
