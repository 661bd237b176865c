package repo

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"anole/internal/testutil"
)

// TestServerPublishRollbackLineage walks the server through the rollout
// life cycle — seed, publish, rollback, publish again — and pins the
// versioning contract: generation numbers are minted monotonically and
// never reused, archived payloads stay fetchable and a rollback restores
// them bit-for-bit, and every event lands in the lineage with its
// parent, digest and note.
func TestServerPublishRollbackLineage(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("seed generation %d, want 1", srv.Generation())
	}
	gen1Blob := append([]byte(nil), srv.BundleBytes()...)

	gen2, err := srv.Publish(fx.Bundle, "retrained for night fog")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != 2 || srv.Generation() != 2 {
		t.Fatalf("publish minted %d (active %d), want 2", gen2, srv.Generation())
	}
	// The seed generation stays archived, bit-for-bit.
	archived, ok := srv.GenerationBundleBytes(1)
	if !ok || !bytes.Equal(archived, gen1Blob) {
		t.Fatalf("archived generation 1 diverged (ok %v, %d vs %d bytes)", ok, len(archived), len(gen1Blob))
	}
	if _, ok := srv.GenerationBundleBytes(99); ok {
		t.Fatal("never-published generation 99 served")
	}

	// Rollback guards: the active generation and unknown generations are
	// not rollback targets.
	if err := srv.Rollback(2, "x"); err == nil {
		t.Fatal("rollback to the active generation accepted")
	}
	if err := srv.Rollback(99, "x"); err == nil {
		t.Fatal("rollback to an unknown generation accepted")
	}

	if err := srv.Rollback(1, "canary regressed"); err != nil {
		t.Fatal(err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("active generation %d after rollback, want 1", srv.Generation())
	}
	if !bytes.Equal(srv.BundleBytes(), gen1Blob) {
		t.Fatal("rollback did not restore the seed payload bit-for-bit")
	}

	// A rollback frees no numbers: the next publish mints 3, not 2.
	gen3, err := srv.Publish(fx.Bundle, "second attempt")
	if err != nil {
		t.Fatal(err)
	}
	if gen3 != 3 {
		t.Fatalf("post-rollback publish minted %d, want 3", gen3)
	}

	lin := srv.Lineage()
	wantEvents := []struct {
		gen, parent uint64
		event, note string
	}{
		{1, 0, LineageEventPublish, "seed"},
		{2, 1, LineageEventPublish, "retrained for night fog"},
		{1, 2, LineageEventRollback, "canary regressed"},
		{3, 1, LineageEventPublish, "second attempt"},
	}
	if len(lin) != len(wantEvents) {
		t.Fatalf("lineage has %d entries, want %d: %+v", len(lin), len(wantEvents), lin)
	}
	for i, want := range wantEvents {
		e := lin[i]
		if e.Generation != want.gen || e.Parent != want.parent || e.Event != want.event || e.Note != want.note {
			t.Fatalf("lineage[%d] = %+v, want %+v", i, e, want)
		}
		if e.BundleSHA256 != digestFor(gen1Blob) {
			t.Fatalf("lineage[%d] digest %q does not anchor the published payload", i, e.BundleSHA256)
		}
	}
	// The seed publish introduced every model; republishing the same
	// bundle introduced none.
	if len(lin[0].AddedModels) != fx.Bundle.NumModels() {
		t.Fatalf("seed publish added %d models, want %d", len(lin[0].AddedModels), fx.Bundle.NumModels())
	}
	if len(lin[1].AddedModels) != 0 || len(lin[3].AddedModels) != 0 {
		t.Fatalf("republish reported added models: %v / %v", lin[1].AddedModels, lin[3].AddedModels)
	}

	// The manifest mirrors the lineage, and model versions record first
	// appearance, not the current generation.
	m := srv.Manifest()
	if m.Generation != 3 || len(m.Lineage) != len(wantEvents) {
		t.Fatalf("manifest generation %d with %d lineage entries", m.Generation, len(m.Lineage))
	}
	for _, mm := range m.Models {
		if mm.Version != 1 {
			t.Fatalf("model %s version %d, want 1 (first appeared in the seed)", mm.Name, mm.Version)
		}
	}
}

// TestServerGenerationEndpoints drives the archived-generation HTTP
// surface: pinned fetches of old payloads, permanent ETags for immutable
// generations, a manifest ETag that moves on every publish AND rollback,
// and clean 400/404s for malformed or unknown paths.
func TestServerGenerationEndpoints(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, []byte) {
		t.Helper()
		return getTagged(t, ts.URL+path, "")
	}

	_, seedManifestTag, _ := get("/v1/manifest")
	gen1Blob := append([]byte(nil), srv.BundleBytes()...)

	if _, err := srv.Publish(fx.Bundle, "gen two"); err != nil {
		t.Fatal(err)
	}

	status, gen1Tag, body := get("/v1/generation/1/bundle")
	if status != http.StatusOK || !bytes.Equal(body, gen1Blob) {
		t.Fatalf("archived bundle fetch: status %d, %d bytes", status, len(body))
	}
	if want := etagFor(gen1Blob); gen1Tag != want {
		t.Fatalf("archived bundle ETag %q, want %q", gen1Tag, want)
	}
	// Archived payloads are immutable, so their ETag revalidates forever.
	if status, _, _ := getTagged(t, ts.URL+"/v1/generation/1/bundle", gen1Tag); status != http.StatusNotModified {
		t.Fatalf("revalidation of an archived generation: status %d, want 304", status)
	}

	_, postPublishTag, _ := get("/v1/manifest")
	if postPublishTag == seedManifestTag {
		t.Fatal("manifest ETag did not move on publish")
	}
	if err := srv.Rollback(1, "withdrawn"); err != nil {
		t.Fatal(err)
	}
	// The rollback re-serves the old payload under a NEW manifest ETag —
	// that is how a revalidating device notices the withdrawal.
	_, postRollbackTag, _ := get("/v1/manifest")
	if postRollbackTag == postPublishTag || postRollbackTag == seedManifestTag {
		t.Fatalf("manifest ETag did not move on rollback: %q", postRollbackTag)
	}
	if status, _, body := get("/v1/bundle"); status != http.StatusOK || !bytes.Equal(body, gen1Blob) {
		t.Fatalf("active bundle after rollback: status %d, %d bytes", status, len(body))
	}

	for path, want := range map[string]int{
		"/v1/generation/abc/bundle": http.StatusBadRequest,
		"/v1/generation/1":          http.StatusBadRequest,
		"/v1/generation/9/bundle":   http.StatusNotFound,
		"/v1/generation/1/weird":    http.StatusNotFound,
	} {
		if status, _, _ := get(path); status != want {
			t.Errorf("GET %s: status %d, want %d", path, status, want)
		}
	}
}
