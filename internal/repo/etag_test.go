package repo

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"anole/internal/nn"
	"anole/internal/testutil"
)

// getTagged GETs url, sending inm as If-None-Match when it is not
// empty, and returns the status, the ETag and the body.
func getTagged(t *testing.T, url, inm string) (status int, etag string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

func TestServerETagRevalidation(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/bundle"

	// First fetch pays the full payload and yields an ETag.
	status, etag, body := getTagged(t, url, "")
	if status != http.StatusOK || etag == "" {
		t.Fatalf("first fetch: status %d etag %q", status, etag)
	}
	if _, err := ReadBundle(bytes.NewReader(body)); err != nil {
		t.Fatalf("decode bundle payload: %v", err)
	}
	// Revalidation with the same ETag costs a 304, no payload.
	status, etag2, body := getTagged(t, url, etag)
	if status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, %d bytes", status, len(body))
	}
	if etag2 != etag {
		t.Fatalf("etag changed on 304: %q vs %q", etag2, etag)
	}
	// A stale ETag downloads the bundle again.
	if status, _, body := getTagged(t, url, `"stale"`); status != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale etag: status %d, %d bytes", status, len(body))
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

	det := fx.Bundle.Detectors[0]
	url := ts.URL + "/v1/model/" + det.Name
	status, etag, data := getTagged(t, url, "")
	if status != http.StatusOK || len(data) == 0 || etag == "" {
		t.Fatalf("model fetch: status %d bytes=%d etag=%q", status, len(data), etag)
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
	if status, _, data := getTagged(t, url, etag); status != http.StatusNotModified || len(data) != 0 {
		t.Fatalf("model revalidation: status %d, %d bytes", status, len(data))
	}
	if status, _, _ := getTagged(t, ts.URL+"/v1/model/no-such-model", ""); status != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", status)
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

	url := ts.URL + "/v1/manifest"
	_, etag, _ := getTagged(t, url, "")
	if etag == "" {
		t.Fatal("manifest response has no ETag")
	}
	// If-None-Match list and wildcard forms both revalidate.
	for _, inm := range []string{etag, `"other", ` + etag, "W/" + etag, "*"} {
		if status, _, _ := getTagged(t, url, inm); status != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d", inm, status)
		}
	}
	// A non-matching tag serves the full manifest.
	if status, _, _ := getTagged(t, url, `"nope"`); status != http.StatusOK {
		t.Fatalf("non-matching If-None-Match: status %d", status)
	}
}
