package repo

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"anole/internal/core"
	"anole/internal/synth"
	"anole/internal/testutil"
	"anole/internal/xrand"
)

func bundlesEquivalent(t *testing.T, a, b *core.Bundle, f *synth.Frame) {
	t.Helper()
	if a.NumModels() != b.NumModels() || a.FeatDim != b.FeatDim {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", a.NumModels(), a.FeatDim, b.NumModels(), b.FeatDim)
	}
	sa, sb := a.Decision.Scores(f), b.Decision.Scores(f)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("decision scores differ at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
	for i := range a.Detectors {
		ma := a.Detectors[i].ScoreBatch(nil, []*synth.Frame{f}, nil)[0]
		mb := b.Detectors[i].ScoreBatch(nil, []*synth.Frame{f}, nil)[0]
		if ma != mb {
			t.Fatalf("detector %d differs: %+v vs %+v", i, ma, mb)
		}
		if a.Detectors[i].Name != b.Detectors[i].Name {
			t.Fatalf("detector %d name differs", i)
		}
		if a.Infos[i].Level != b.Infos[i].Level || a.Infos[i].ValF1 != b.Infos[i].ValF1 {
			t.Fatalf("info %d differs", i)
		}
		if len(a.Infos[i].TrainScenes) != len(b.Infos[i].TrainScenes) {
			t.Fatalf("info %d scenes differ", i)
		}
	}
}

func TestBundleRoundtrip(t *testing.T) {
	fx := testutil.Shared(t)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bundlesEquivalent(t, fx.Bundle, got, fx.Corpus.Frames(synth.Test)[0])
}

func TestBundleFileRoundtrip(t *testing.T) {
	fx := testutil.Shared(t)
	path := filepath.Join(t.TempDir(), "anole.bundle")
	if err := SaveFile(path, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bundlesEquivalent(t, fx.Bundle, got, fx.Corpus.Frames(synth.Test)[0])
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.bundle")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadBundleBadMagic(t *testing.T) {
	if _, err := ReadBundle(strings.NewReader("XXXXjunkjunkjunk")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadBundleCorrupted(t *testing.T) {
	fx := testutil.Shared(t)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt a metadata byte outside the inner network blobs' own
	// checks (near the end, before the outer CRC).
	data[len(data)-10] ^= 0xFF
	if _, err := ReadBundle(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestReadBundleTruncated(t *testing.T) {
	fx := testutil.Shared(t)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{2, 8, 64, len(data) / 3, len(data) - 2} {
		if _, err := ReadBundle(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteBundleRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, &core.Bundle{}); err == nil {
		t.Fatal("invalid bundle accepted")
	}
}

func TestArchByName(t *testing.T) {
	if _, err := ArchByName("deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := ArchByName("compressed"); err != nil {
		t.Fatal(err)
	}
	if _, err := ArchByName("mystery"); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestServerAndClient(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	manifest, err := client.FetchManifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Models) != fx.Bundle.NumModels() {
		t.Fatalf("manifest models = %d", len(manifest.Models))
	}
	if manifest.BundleBytes <= 0 || manifest.FeatDim != fx.Bundle.FeatDim {
		t.Fatalf("manifest: %+v", manifest)
	}

	got, err := client.FetchBundle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bundlesEquivalent(t, fx.Bundle, got, fx.Corpus.Frames(synth.Test)[0])

	// Downloaded bundle drives a runtime end to end.
	rt, err := core.NewRuntime(got, core.RuntimeConfig{CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fx.Corpus.Frames(synth.Test)[:20] {
		if _, err := rt.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerRejectsNonGET(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/bundle", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/manifest", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestClientBadServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	if _, err := client.FetchBundle(context.Background()); err == nil {
		t.Fatal("500 accepted")
	}
	if _, err := client.FetchManifest(context.Background()); err == nil {
		t.Fatal("500 accepted")
	}
}

func TestClientUnreachable(t *testing.T) {
	client := &Client{BaseURL: "http://127.0.0.1:1"}
	if _, err := client.FetchBundle(context.Background()); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

func TestClientContextCancel(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	client := &Client{BaseURL: ts.URL}
	if _, err := client.FetchBundle(ctx); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestBundleRoundtripPreservesNovelty(t *testing.T) {
	fx := testutil.Shared(t)
	if len(fx.Bundle.Centroids) == 0 || fx.Bundle.NoveltyScale <= 0 {
		t.Fatal("fixture bundle should carry novelty calibration")
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NoveltyScale != fx.Bundle.NoveltyScale {
		t.Fatalf("novelty scale %v vs %v", got.NoveltyScale, fx.Bundle.NoveltyScale)
	}
	if len(got.Centroids) != len(fx.Bundle.Centroids) {
		t.Fatalf("centroids %d vs %d", len(got.Centroids), len(fx.Bundle.Centroids))
	}
	f := fx.Corpus.Frames(synth.Test)[0]
	if testutil.Novelty(got, f) != testutil.Novelty(fx.Bundle, f) {
		t.Fatal("novelty scores differ after roundtrip")
	}
}

func TestBundleRoundtripNegativeCluster(t *testing.T) {
	// Continual-expansion models carry Cluster -1; the format must not
	// mangle it.
	fx := testutil.Shared(t)
	clone := *fx.Bundle
	clone.Infos = append([]core.ModelInfo(nil), fx.Bundle.Infos...)
	clone.Infos[0].Cluster = -1
	clone.Infos[0].Level = 0
	var buf bytes.Buffer
	if err := WriteBundle(&buf, &clone); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Infos[0].Cluster != -1 || got.Infos[0].Level != 0 {
		t.Fatalf("provenance mangled: %+v", got.Infos[0])
	}
}

// Property: arbitrary single-byte corruption anywhere in the bundle never
// panics — ReadBundle either errors or (for bytes the checksum cannot
// see, i.e. none) returns a valid bundle.
func TestReadBundleCorruptionProperty(t *testing.T) {
	fx := testutil.Shared(t)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := xrand.New(4321)
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), pristine...)
		pos := rng.Intn(len(data))
		bit := byte(1) << rng.Intn(8)
		data[pos] ^= bit
		b, err := func() (b *core.Bundle, err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corruption at byte %d: %v", pos, r)
				}
			}()
			return ReadBundle(bytes.NewReader(data))
		}()
		if err == nil {
			// The IEEE CRC covers every byte after the magic; only a
			// corrupted magic byte can "succeed"... and it cannot,
			// since the magic is checked. So success is a bug.
			t.Fatalf("corruption at byte %d (bit %02x) went undetected (bundle %v)", pos, bit, b != nil)
		}
	}
}

// Property: random truncation never panics and always errors.
func TestReadBundleTruncationProperty(t *testing.T) {
	fx := testutil.Shared(t)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := xrand.New(8765)
	for trial := 0; trial < 100; trial++ {
		cut := rng.Intn(len(pristine)-1) + 1
		if _, err := ReadBundle(bytes.NewReader(pristine[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
