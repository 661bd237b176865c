package pressure

import (
	"fmt"
	"io"
	"math"
	"os"

	"anole/internal/codec"
)

// Checkpoint format (all little-endian):
//
//	magic      [4]byte "ANLC"
//	version    uint16 (2)
//	generation uint64
//	hasMarkov  uint8 (0|1)
//	  n        uint32            (models; rows == cols)
//	  alpha    float64           (Laplace smoothing, recorded for audit)
//	  obs      uint64            (observed transitions)
//	  counts   n×n float64
//	  rowSum   n float64
//	cacheN     uint32
//	  entries  cacheN × (keyLen uint16, key bytes, freq uint32)
//	driftN     uint32
//	  windows  driftN × (stream uint32, count uint32, sumEntropy float64,
//	           sumNovelty float64, probes uint32, disagreed float64,
//	           cooldown uint32, seen uint64, flagged uint64, emitted uint64)
//	fleetN     uint32                              (version ≥ 2 only)
//	  classes  fleetN × (classLen uint16, class bytes)
//	crc32      uint32 (IEEE, over everything after the magic)
//
// This is the warm state worth surviving a process death: the Markov
// transition counts (minutes of scene history), the cache residency
// manifest with LFU frequencies (model bytes persist on device flash,
// so residency can be re-pinned without link fetches), the fleet
// generation pin, and the drift-detector windows. Everything else —
// model weights (re-fetched by digest from the repo), per-frame
// scratch, hysteresis streaks, drift exemplar frames and centroids —
// is deliberately not checkpointed: it is either re-derivable, owned
// by the repository, or too short-lived to matter across a restart.
//
// Version 2 appends the fleet section: the per-stream device class the
// checkpoint was captured on, so a restore onto a different fleet
// layout (where stream indices mean different hardware) is refused.
// Version-1 files (no fleet section) remain readable and restore
// anywhere.
const (
	checkpointMagic   = "ANLC"
	checkpointVersion = 2
	maxMarkovModels   = 1 << 12
	maxCacheEntries   = 1 << 16
	maxCacheKeyLen    = 1 << 10
	maxDriftWindows   = 1 << 16
	maxFleetStreams   = 1 << 16
)

// Checkpoint is the plain, package-neutral snapshot of warm runtime
// state. core, prefetch, and adapt convert their internal state to and
// from these fields; pressure itself only encodes and decodes them.
type Checkpoint struct {
	// Generation is the fleet bundle generation being served.
	Generation uint64
	// Markov is the scene-transition model state (nil if prefetch is
	// disabled).
	Markov *MarkovState
	// Cache is the residency manifest: which models were resident and
	// how warm each was.
	Cache []CacheEntry
	// Drift holds one in-progress drift-detector window per stream.
	Drift []DriftWindow
	// Fleet is the per-stream device class the checkpoint was captured
	// on (nil for single-device runs and version-1 files). A restore
	// onto a different fleet layout is refused by the caller.
	Fleet []string
}

// MarkovState mirrors prefetch.Markov's counts matrix.
type MarkovState struct {
	N      int
	Alpha  float64
	Obs    int64
	Counts []float64 // row-major N×N
	RowSum []float64 // length N
}

// CacheEntry is one resident model in the manifest.
type CacheEntry struct {
	Key  string
	Freq int // LFU perfect-history frequency
}

// DriftWindow is one stream's in-progress drift-detection window.
type DriftWindow struct {
	Stream     int
	Count      int
	SumEntropy float64
	SumNovelty float64
	Probes     int
	Disagreed  float64
	Cooldown   int
	Seen       int64
	Flagged    int64
	Emitted    int64
}

// WriteCheckpoint serializes c.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if c == nil {
		return fmt.Errorf("pressure: nil checkpoint")
	}
	if len(c.Cache) > maxCacheEntries {
		return fmt.Errorf("pressure: %d cache entries exceed limit %d", len(c.Cache), maxCacheEntries)
	}
	if len(c.Drift) > maxDriftWindows {
		return fmt.Errorf("pressure: %d drift windows exceed limit %d", len(c.Drift), maxDriftWindows)
	}
	if len(c.Fleet) > maxFleetStreams {
		return fmt.Errorf("pressure: %d fleet streams exceed limit %d", len(c.Fleet), maxFleetStreams)
	}
	cw := codec.NewWriter(w, checkpointMagic)
	cw.Uint16(checkpointVersion)
	cw.Uint64(c.Generation)
	if m := c.Markov; m != nil {
		if m.N <= 0 || m.N > maxMarkovModels {
			return fmt.Errorf("pressure: implausible markov dimension %d", m.N)
		}
		if len(m.Counts) != m.N*m.N || len(m.RowSum) != m.N {
			return fmt.Errorf("pressure: markov geometry mismatch: n=%d counts=%d rowSum=%d",
				m.N, len(m.Counts), len(m.RowSum))
		}
		cw.Uint8(1)
		cw.Uint32(uint32(m.N))
		cw.Float64(m.Alpha)
		cw.Uint64(uint64(m.Obs))
		cw.Float64s(m.Counts)
		cw.Float64s(m.RowSum)
	} else {
		cw.Uint8(0)
	}
	cw.Uint32(uint32(len(c.Cache)))
	for i, e := range c.Cache {
		if len(e.Key) == 0 || len(e.Key) > maxCacheKeyLen {
			return fmt.Errorf("pressure: cache entry %d key length %d out of range", i, len(e.Key))
		}
		if e.Freq < 0 {
			return fmt.Errorf("pressure: cache entry %d negative freq %d", i, e.Freq)
		}
		cw.String16(e.Key)
		cw.Uint32(uint32(e.Freq))
	}
	cw.Uint32(uint32(len(c.Drift)))
	for i, d := range c.Drift {
		if d.Stream < 0 || d.Count < 0 || d.Probes < 0 || d.Cooldown < 0 {
			return fmt.Errorf("pressure: drift window %d has negative fields", i)
		}
		cw.Uint32(uint32(d.Stream))
		cw.Uint32(uint32(d.Count))
		cw.Float64(d.SumEntropy)
		cw.Float64(d.SumNovelty)
		cw.Uint32(uint32(d.Probes))
		cw.Float64(d.Disagreed)
		cw.Uint32(uint32(d.Cooldown))
		cw.Uint64(uint64(d.Seen))
		cw.Uint64(uint64(d.Flagged))
		cw.Uint64(uint64(d.Emitted))
	}
	cw.Uint32(uint32(len(c.Fleet)))
	for i, class := range c.Fleet {
		if len(class) == 0 || len(class) > maxCacheKeyLen {
			return fmt.Errorf("pressure: fleet stream %d class length %d out of range", i, len(class))
		}
		cw.String16(class)
	}
	if err := cw.Close(); err != nil {
		return fmt.Errorf("pressure: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint,
// verifying version, plausibility bounds, and the trailing CRC.
// Any malformed input — truncation, bit flips, version skew, trailing
// bytes — yields an error and no partial state; callers treat every
// error as "cold start".
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	cr := codec.NewReader(r, checkpointMagic)
	version, gen, hasMarkov := cr.Uint16(), cr.Uint64(), cr.Uint8()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("pressure: read header: %w", err)
	}
	if version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("pressure: unsupported checkpoint version %d", version)
	}
	c := &Checkpoint{Generation: gen}
	switch hasMarkov {
	case 0:
	case 1:
		n, alpha, obs := cr.Uint32(), cr.Float64(), cr.Uint64()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("pressure: read markov header: %w", err)
		}
		if n == 0 || n > maxMarkovModels {
			return nil, fmt.Errorf("pressure: implausible markov dimension %d", n)
		}
		if !plausibleFinite(alpha) || alpha < 0 {
			return nil, fmt.Errorf("pressure: implausible markov alpha %v", alpha)
		}
		m := &MarkovState{N: int(n), Alpha: alpha, Obs: int64(obs)}
		m.Counts, m.RowSum = cr.Float64s(int(n)*int(n)), cr.Float64s(int(n))
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("pressure: read markov matrix: %w", err)
		}
		for _, v := range m.Counts {
			if !plausibleFinite(v) || v < 0 {
				return nil, fmt.Errorf("pressure: implausible markov count %v", v)
			}
		}
		for _, v := range m.RowSum {
			if !plausibleFinite(v) || v < 0 {
				return nil, fmt.Errorf("pressure: implausible markov row sum %v", v)
			}
		}
		c.Markov = m
	default:
		return nil, fmt.Errorf("pressure: bad markov flag %d", hasMarkov)
	}
	// Sections grow as their entries arrive, never to a header's count.
	// A count that fails to read is zero: its loop is skipped and Close
	// reports the error.
	cacheN := cr.Uint32()
	if cacheN > maxCacheEntries {
		return nil, fmt.Errorf("pressure: implausible cache entry count %d", cacheN)
	}
	for i := 0; i < int(cacheN); i++ {
		key, freq := cr.String16(maxCacheKeyLen), cr.Uint32()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("pressure: read cache entry %d: %w", i, err)
		}
		if key == "" {
			return nil, fmt.Errorf("pressure: cache entry %d has an empty key", i)
		}
		c.Cache = append(c.Cache, CacheEntry{Key: key, Freq: int(freq)})
	}
	driftN := cr.Uint32()
	if driftN > maxDriftWindows {
		return nil, fmt.Errorf("pressure: implausible drift window count %d", driftN)
	}
	for i := 0; i < int(driftN); i++ {
		d := DriftWindow{
			Stream:     int(cr.Uint32()),
			Count:      int(cr.Uint32()),
			SumEntropy: cr.Float64(),
			SumNovelty: cr.Float64(),
			Probes:     int(cr.Uint32()),
			Disagreed:  cr.Float64(),
			Cooldown:   int(cr.Uint32()),
			Seen:       int64(cr.Uint64()),
			Flagged:    int64(cr.Uint64()),
			Emitted:    int64(cr.Uint64()),
		}
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("pressure: read drift window %d: %w", i, err)
		}
		if !plausibleFinite(d.SumEntropy) || !plausibleFinite(d.SumNovelty) || !plausibleFinite(d.Disagreed) {
			return nil, fmt.Errorf("pressure: drift window %d has non-finite sums", i)
		}
		c.Drift = append(c.Drift, d)
	}
	if version >= 2 {
		fleetN := cr.Uint32()
		if fleetN > maxFleetStreams {
			return nil, fmt.Errorf("pressure: implausible fleet stream count %d", fleetN)
		}
		for i := 0; i < int(fleetN); i++ {
			class := cr.String16(maxCacheKeyLen)
			if err := cr.Err(); err != nil {
				return nil, fmt.Errorf("pressure: read fleet stream %d: %w", i, err)
			}
			if class == "" {
				return nil, fmt.Errorf("pressure: fleet stream %d has an empty class", i)
			}
			c.Fleet = append(c.Fleet, class)
		}
	}
	if err := cr.Close(); err != nil {
		return nil, fmt.Errorf("pressure: checkpoint: %w", err)
	}
	return c, nil
}

func plausibleFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// SaveCheckpoint writes c to path atomically (codec.SaveFile), so a
// crash mid-write leaves either the previous checkpoint or none —
// never a torn file.
func SaveCheckpoint(path string, c *Checkpoint) error {
	return codec.SaveFile(path, func(w io.Writer) error { return WriteCheckpoint(w, c) })
}

// LoadCheckpoint reads a checkpoint from path. Every failure mode —
// missing file, truncation, corruption, version skew — returns an
// error; the caller's fallback is a cold start.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pressure: open checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
