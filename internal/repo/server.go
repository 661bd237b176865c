package repo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anole/internal/core"
)

// Manifest is the JSON summary a device can inspect before committing to
// a download.
type Manifest struct {
	Models      []ManifestModel `json:"models"`
	FeatDim     int             `json:"featDim"`
	EmbedDim    int             `json:"embedDim"`
	BundleBytes int             `json:"bundleBytes"`
	// BundleSHA256 is the hex SHA-256 of the bundle payload. Unlike the
	// transport-level ETag it travels inside the manifest, so a device
	// can verify downloaded content end-to-end — through any proxy or
	// cache — against what the repository intended to serve.
	BundleSHA256 string `json:"bundleSha256"`
	// Generation identifies the bundle this manifest describes.
	// Generations are minted monotonically by Publish; a rollback
	// re-activates an archived generation, so the ACTIVE generation can
	// step backwards while generation numbers themselves are never
	// reused. Devices treat a changed generation as "new content" and a
	// smaller-than-cached one as a deliberate rollback, not staleness.
	Generation uint64 `json:"generation"`
	// Lineage is the full publish/rollback history, oldest first — the
	// digest chain a device (or auditor) can walk to verify how the
	// active bundle came to be.
	Lineage []LineageEntry `json:"lineage,omitempty"`
}

// Lineage event kinds.
const (
	LineageEventPublish  = "publish"
	LineageEventRollback = "rollback"
)

// LineageEntry records one repository event: a generation published or
// an archived generation re-activated by a rollback.
type LineageEntry struct {
	// Generation is the generation made active by this event; Parent is
	// the generation that was active when it happened (0 for the seed
	// publish).
	Generation uint64 `json:"generation"`
	Parent     uint64 `json:"parent"`
	// Event is "publish" or "rollback".
	Event string `json:"event"`
	// BundleSHA256 is the hex digest of the generation's bundle payload —
	// the per-generation content anchor of the lineage chain.
	BundleSHA256 string `json:"bundleSha256"`
	// AddedModels names models that first appeared in this generation
	// (publishes only).
	AddedModels []string `json:"addedModels,omitempty"`
	// Note is the publisher's free-form annotation (e.g. the drift
	// signature the generation was trained for).
	Note string `json:"note,omitempty"`
	// Trace is the causal trace ID of the drift journey that produced
	// this event (the triggering drift report's ID), so one trace links
	// a device's report through retrain, publish and rollback history.
	Trace string `json:"trace,omitempty"`
}

// ManifestModel summarizes one repertoire model.
type ManifestModel struct {
	Name        string  `json:"name"`
	Arch        string  `json:"arch"`
	Level       int     `json:"level"`
	Cluster     int     `json:"cluster"`
	ValF1       float64 `json:"valF1"`
	WeightBytes int64   `json:"weightBytes"`
	SceneCount  int     `json:"sceneCount"`
	// SHA256 is the hex digest of this model's serialized network, for
	// client-side verification of per-model downloads.
	SHA256 string `json:"sha256"`
	// Version is the generation in which this model (by name) first
	// appeared. Seed models carry the seed generation; models appended
	// by continual adaptation carry the generation that published them.
	Version uint64 `json:"version"`
}

// Server serves a profiled bundle to devices over HTTP:
//
//	GET /v1/manifest              — JSON Manifest (active generation)
//	GET /v1/bundle                — the active binary bundle
//	GET /v1/model/{name}          — one model's serialized network
//	GET /v1/generation/{n}/manifest — an archived generation's manifest
//	GET /v1/generation/{n}/bundle   — an archived generation's bundle
//
// Every response carries a strong ETag (content checksum); a request
// whose If-None-Match matches is answered 304 Not Modified with no
// body, so devices revalidate a cached bundle or model for the cost of
// the headers. The manifest embeds the active generation and lineage,
// so its ETag changes on every publish AND every rollback — a device
// revalidating by If-None-Match observes both — while an archived
// generation's bundle ETag is permanent, because generation payloads
// are immutable once published.
//
// The server starts at the seed generation (NewServer) and mutates only
// through Publish and Rollback, which swap an immutable snapshot
// atomically; requests always see one consistent generation. Server is
// safe for concurrent use.
type Server struct {
	// mu serializes Publish/Rollback (writers); readers go through cur.
	mu      sync.Mutex
	cur     atomic.Pointer[generationState]
	history map[uint64]*generationState
	nextGen uint64
	lineage []LineageEntry
}

// generationState is one immutable serving snapshot.
type generationState struct {
	gen          uint64
	manifest     Manifest
	manifestJSON []byte
	manifestTag  string
	blob         []byte
	blobTag      string
	models       map[string]blobWithTag
}

type blobWithTag struct {
	data []byte
	etag string
}

// digestFor returns the hex SHA-256 of a payload — the manifest's
// content digest.
func digestFor(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// etagFor returns the strong ETag of a payload: the quoted hex SHA-256
// (the same digest the manifest carries, in transport dress).
func etagFor(data []byte) string {
	return fmt.Sprintf("%q", digestFor(data))
}

// NewServer prepares a server for the bundle, which becomes the seed
// generation (1).
func NewServer(b *core.Bundle) (*Server, error) {
	s := &Server{history: make(map[uint64]*generationState)}
	if _, err := s.publishLocked(b, "seed", ""); err != nil {
		return nil, err
	}
	return s, nil
}

// buildGeneration serializes one bundle into an immutable serving
// snapshot. versions maps model name → generation of first appearance;
// names not in it are assigned gen (and reported in added).
func buildGeneration(b *core.Bundle, gen uint64, versions map[string]uint64, lineage []LineageEntry) (st *generationState, added []string, err error) {
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		return nil, nil, err
	}
	m := Manifest{
		FeatDim:      b.FeatDim,
		EmbedDim:     b.Encoder.EmbedDim(),
		BundleBytes:  buf.Len(),
		BundleSHA256: digestFor(buf.Bytes()),
		Generation:   gen,
		Lineage:      lineage,
	}
	models := make(map[string]blobWithTag, len(b.Detectors))
	for i, det := range b.Detectors {
		var mbuf bytes.Buffer
		if _, err := det.Weights().WriteTo(&mbuf); err != nil {
			return nil, nil, fmt.Errorf("repo: serialize model %q: %w", det.Name, err)
		}
		version, known := versions[det.Name]
		if !known {
			version = gen
			added = append(added, det.Name)
		}
		m.Models = append(m.Models, ManifestModel{
			Name:        det.Name,
			Arch:        det.Arch.Name,
			Level:       b.Infos[i].Level,
			Cluster:     b.Infos[i].Cluster,
			ValF1:       b.Infos[i].ValF1,
			WeightBytes: det.WeightBytes(),
			SceneCount:  len(b.Infos[i].TrainScenes),
			SHA256:      digestFor(mbuf.Bytes()),
			Version:     version,
		})
		models[det.Name] = blobWithTag{data: mbuf.Bytes(), etag: etagFor(mbuf.Bytes())}
	}
	mjson, err := json.Marshal(m)
	if err != nil {
		return nil, nil, fmt.Errorf("repo: encode manifest: %w", err)
	}
	return &generationState{
		gen:          gen,
		manifest:     m,
		manifestJSON: mjson,
		manifestTag:  etagFor(mjson),
		blob:         buf.Bytes(),
		blobTag:      etagFor(buf.Bytes()),
		models:       models,
	}, added, nil
}

// Publish serializes b as the next generation, makes it the active one,
// and returns its generation number. Generation numbers increase
// monotonically across the server's lifetime — a rollback never frees
// one for reuse. The previous generation stays archived and fetchable
// under /v1/generation/, so devices mid-canary keep a stable reference
// and a rollback can restore it bit-for-bit.
func (s *Server) Publish(b *core.Bundle, note string) (uint64, error) {
	return s.PublishTraced(b, note, "")
}

// PublishTraced is Publish carrying the causal trace ID of the drift
// journey that produced the generation; the trace lands in the new
// lineage entry, linking the published bundle back to the device report
// that triggered its retrain.
func (s *Server) PublishTraced(b *core.Bundle, note, trace string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(b, note, trace)
}

func (s *Server) publishLocked(b *core.Bundle, note, trace string) (uint64, error) {
	gen := s.nextGen + 1
	var parent uint64
	versions := make(map[string]uint64)
	if cur := s.cur.Load(); cur != nil {
		parent = cur.gen
		for _, m := range cur.manifest.Models {
			versions[m.Name] = m.Version
		}
	}
	// Two-pass build: the lineage entry carries the new bundle's digest
	// and added-model names, and the manifest embeds the lineage.
	st, added, err := buildGeneration(b, gen, versions, nil)
	if err != nil {
		return 0, err
	}
	entry := LineageEntry{
		Generation:   gen,
		Parent:       parent,
		Event:        LineageEventPublish,
		BundleSHA256: st.manifest.BundleSHA256,
		AddedModels:  added,
		Note:         note,
		Trace:        trace,
	}
	lineage := append(append([]LineageEntry(nil), s.lineage...), entry)
	st, _, err = buildGeneration(b, gen, versions, lineage)
	if err != nil {
		return 0, err
	}
	s.lineage = lineage
	s.nextGen = gen
	s.history[gen] = st
	s.cur.Store(st)
	return gen, nil
}

// Rollback re-activates an archived generation: the fleet serves
// generation `to`'s bundle again, bit-for-bit identical to when it was
// published (same payload, same ETag, same digest). The event is
// appended to the lineage — so the manifest's ETag changes and
// revalidating devices notice — but no new generation number is minted:
// monotonicity applies to publishes, and the active generation reading
// `to` again is precisely the signal that the newer generation was
// withdrawn.
func (s *Server) Rollback(to uint64, note string) error {
	return s.RollbackTraced(to, note, "")
}

// RollbackTraced is Rollback carrying the causal trace ID of the drift
// journey whose generation is being withdrawn, so the lineage records
// which adaptation attempt failed.
func (s *Server) RollbackTraced(to uint64, note, trace string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.history[to]
	if !ok {
		return fmt.Errorf("repo: rollback to unknown generation %d", to)
	}
	cur := s.cur.Load()
	if cur != nil && cur.gen == to {
		return fmt.Errorf("repo: rollback to generation %d, already active", to)
	}
	entry := LineageEntry{
		Generation:   to,
		Parent:       cur.gen,
		Event:        LineageEventRollback,
		BundleSHA256: st.manifest.BundleSHA256,
		Note:         note,
		Trace:        trace,
	}
	lineage := append(append([]LineageEntry(nil), s.lineage...), entry)
	m := st.manifest
	m.Lineage = lineage
	mjson, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repo: encode manifest: %w", err)
	}
	// The bundle payload, per-model blobs and their ETags are the
	// archived generation's, untouched; only the manifest (which embeds
	// the lineage) is re-baked.
	restored := &generationState{
		gen:          st.gen,
		manifest:     m,
		manifestJSON: mjson,
		manifestTag:  etagFor(mjson),
		blob:         st.blob,
		blobTag:      st.blobTag,
		models:       st.models,
	}
	s.lineage = lineage
	s.history[to] = restored
	s.cur.Store(restored)
	return nil
}

// Generation returns the active generation number.
func (s *Server) Generation() uint64 { return s.cur.Load().gen }

// Lineage returns a copy of the full publish/rollback history, oldest
// first.
func (s *Server) Lineage() []LineageEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LineageEntry(nil), s.lineage...)
}

// BundleBytes returns the active generation's serialized payload (not a
// copy; callers must not mutate it).
func (s *Server) BundleBytes() []byte { return s.cur.Load().blob }

// GenerationBundleBytes returns an archived generation's serialized
// payload (not a copy), or ok=false for a generation never published.
func (s *Server) GenerationBundleBytes(gen uint64) (data []byte, ok bool) {
	s.mu.Lock()
	st, ok := s.history[gen]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return st.blob, true
}

// serveBlob answers a GET with the payload and its ETag, or 304 when
// the request's If-None-Match already names this content.
func serveBlob(w http.ResponseWriter, r *http.Request, contentType, etag string, data []byte) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}

// etagMatches reports whether an If-None-Match header names the given
// ETag: "*" matches anything, otherwise any listed tag must equal it
// (weak-validator W/ prefixes are accepted — byte-identical content is
// trivially semantically equivalent).
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// Handler returns the HTTP handler serving the repository endpoints.
// Each request reads one atomic generation snapshot, so a Publish or
// Rollback mid-flight never mixes payloads and ETags.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		st := s.cur.Load()
		serveBlob(w, r, "application/json", st.manifestTag, st.manifestJSON)
	})
	mux.HandleFunc("/v1/bundle", func(w http.ResponseWriter, r *http.Request) {
		st := s.cur.Load()
		serveBlob(w, r, "application/octet-stream", st.blobTag, st.blob)
	})
	mux.HandleFunc("/v1/model/", func(w http.ResponseWriter, r *http.Request) {
		name, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/v1/model/"))
		if err != nil {
			http.Error(w, "bad model name", http.StatusBadRequest)
			return
		}
		mb, ok := s.cur.Load().models[name]
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		serveBlob(w, r, "application/octet-stream", mb.etag, mb.data)
	})
	mux.HandleFunc("/v1/generation/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/generation/")
		genStr, resource, ok := strings.Cut(rest, "/")
		if !ok {
			http.Error(w, "want /v1/generation/{n}/{manifest|bundle}", http.StatusBadRequest)
			return
		}
		gen, err := strconv.ParseUint(genStr, 10, 64)
		if err != nil {
			http.Error(w, "bad generation", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		st, found := s.history[gen]
		s.mu.Unlock()
		if !found {
			http.Error(w, "unknown generation", http.StatusNotFound)
			return
		}
		switch resource {
		case "manifest":
			serveBlob(w, r, "application/json", st.manifestTag, st.manifestJSON)
		case "bundle":
			serveBlob(w, r, "application/octet-stream", st.blobTag, st.blob)
		default:
			http.Error(w, "want manifest or bundle", http.StatusNotFound)
		}
	})
	return mux
}

// Manifest returns the active generation's manifest.
func (s *Server) Manifest() Manifest { return s.cur.Load().manifest }

// Client downloads bundles from a repository server. Client is safe for
// concurrent use.
type Client struct {
	// BaseURL is the repository root, e.g. "http://cloud:8080".
	BaseURL string
}

// bundleRefetches is how many more downloads FetchBundle makes after one
// whose checksum the bundle format rejects.
const bundleRefetches = 2

// FetchManifest downloads and decodes the repository manifest.
func (c *Client) FetchManifest(ctx context.Context) (Manifest, error) {
	var m Manifest
	data, err := c.get(ctx, "/v1/manifest")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("repo: decode manifest: %w", err)
	}
	return m, nil
}

// FetchBundle downloads and deserializes the full bundle — the device's
// one-time offline download before inference begins. A payload the
// bundle format's checksum rejects is discarded and fetched again, up to
// bundleRefetches times; corrupt bytes are never returned.
func (c *Client) FetchBundle(ctx context.Context) (*core.Bundle, error) {
	var lastErr error
	for attempt := 0; attempt <= bundleRefetches; attempt++ {
		data, err := c.get(ctx, "/v1/bundle")
		if err != nil {
			return nil, err
		}
		b, err := ReadBundle(bytes.NewReader(data))
		if err == nil {
			return b, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("repo: bundle rejected after %d fetches: %w", bundleRefetches+1, lastErr)
}

// get performs one GET and reads the whole body. A status other than 200
// and a body shorter or longer than its Content-Length are errors.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repo: fetch %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repo: fetch %s: status %s", path, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("repo: read %s body: %w", path, err)
	}
	if resp.ContentLength >= 0 && int64(len(data)) != resp.ContentLength {
		return nil, fmt.Errorf("repo: fetch %s: truncated body (%d of %d bytes)", path, len(data), resp.ContentLength)
	}
	return data, nil
}

// httpClient bounds every fetch at 30 s, connect through last body byte.
var httpClient = &http.Client{Timeout: 30 * time.Second}
