package repo

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"anole/internal/nn"
	"anole/internal/testutil"
)

func TestServerETagRevalidation(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := Client{BaseURL: ts.URL}
	ctx := context.Background()

	// First fetch pays the full payload and yields an ETag.
	b, etag, notMod, err := c.FetchBundleConditional(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if notMod || b == nil || etag == "" {
		t.Fatalf("first fetch: notMod=%v bundle=%v etag=%q", notMod, b != nil, etag)
	}
	// Revalidation with the same ETag costs a 304, no payload.
	b2, etag2, notMod, err := c.FetchBundleConditional(ctx, etag)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod || b2 != nil {
		t.Fatalf("revalidation: notMod=%v bundle=%v", notMod, b2 != nil)
	}
	if etag2 != etag {
		t.Fatalf("etag changed on 304: %q vs %q", etag2, etag)
	}
	// A stale ETag downloads the bundle again.
	b3, _, notMod, err := c.FetchBundleConditional(ctx, `"stale"`)
	if err != nil {
		t.Fatal(err)
	}
	if notMod || b3 == nil {
		t.Fatal("stale etag did not refetch")
	}
}

func TestServerModelEndpoint(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := Client{BaseURL: ts.URL}
	ctx := context.Background()

	det := fx.Bundle.Detectors[0]
	data, etag, notMod, err := c.FetchModelConditional(ctx, det.Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if notMod || len(data) == 0 || etag == "" {
		t.Fatalf("model fetch: notMod=%v bytes=%d etag=%q", notMod, len(data), etag)
	}
	// The payload is the model's serialized network, byte for byte.
	net, err := nn.ReadWeights(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode model payload: %v", err)
	}
	if net.ParamCount() != det.Weights().ParamCount() {
		t.Fatalf("decoded params %d, want %d", net.ParamCount(), det.Weights().ParamCount())
	}
	// Revalidation costs a 304.
	data2, _, notMod, err := c.FetchModelConditional(ctx, det.Name, etag)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod || data2 != nil {
		t.Fatalf("model revalidation: notMod=%v bytes=%d", notMod, len(data2))
	}
	// Unknown models 404 and are not retried into success.
	if _, _, _, err := c.FetchModelConditional(ctx, "no-such-model", ""); err == nil {
		t.Fatal("unknown model fetched")
	}
}

func TestServerManifestETagAndMatching(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("manifest response has no ETag")
	}
	// If-None-Match list and wildcard forms both revalidate.
	for _, inm := range []string{etag, `"other", ` + etag, "W/" + etag, "*"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/manifest", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d", inm, resp.StatusCode)
		}
	}
	// A non-matching tag serves the full manifest.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/manifest", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", `"nope"`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("non-matching If-None-Match: status %d", resp2.StatusCode)
	}
}
