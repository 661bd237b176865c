package pressure

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
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

func binWrite(w io.Writer, vs ...any) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func binRead(r io.Reader, vs ...any) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
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
	if _, err := w.Write([]byte(checkpointMagic)); err != nil {
		return fmt.Errorf("pressure: write magic: %w", err)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if err := binWrite(mw, uint16(checkpointVersion), c.Generation); err != nil {
		return fmt.Errorf("pressure: write header: %w", err)
	}
	if m := c.Markov; m != nil {
		if m.N <= 0 || m.N > maxMarkovModels {
			return fmt.Errorf("pressure: implausible markov dimension %d", m.N)
		}
		if len(m.Counts) != m.N*m.N || len(m.RowSum) != m.N {
			return fmt.Errorf("pressure: markov geometry mismatch: n=%d counts=%d rowSum=%d",
				m.N, len(m.Counts), len(m.RowSum))
		}
		if err := binWrite(mw, uint8(1), uint32(m.N), m.Alpha, uint64(m.Obs), m.Counts, m.RowSum); err != nil {
			return fmt.Errorf("pressure: write markov: %w", err)
		}
	} else {
		if err := binWrite(mw, uint8(0)); err != nil {
			return fmt.Errorf("pressure: write markov flag: %w", err)
		}
	}
	if err := binWrite(mw, uint32(len(c.Cache))); err != nil {
		return fmt.Errorf("pressure: write cache count: %w", err)
	}
	for i, e := range c.Cache {
		if len(e.Key) == 0 || len(e.Key) > maxCacheKeyLen {
			return fmt.Errorf("pressure: cache entry %d key length %d out of range", i, len(e.Key))
		}
		if e.Freq < 0 {
			return fmt.Errorf("pressure: cache entry %d negative freq %d", i, e.Freq)
		}
		if err := binWrite(mw, uint16(len(e.Key))); err != nil {
			return fmt.Errorf("pressure: write cache entry %d: %w", i, err)
		}
		if _, err := mw.Write([]byte(e.Key)); err != nil {
			return fmt.Errorf("pressure: write cache entry %d: %w", i, err)
		}
		if err := binWrite(mw, uint32(e.Freq)); err != nil {
			return fmt.Errorf("pressure: write cache entry %d: %w", i, err)
		}
	}
	if err := binWrite(mw, uint32(len(c.Drift))); err != nil {
		return fmt.Errorf("pressure: write drift count: %w", err)
	}
	for i, d := range c.Drift {
		if d.Stream < 0 || d.Count < 0 || d.Probes < 0 || d.Cooldown < 0 {
			return fmt.Errorf("pressure: drift window %d has negative fields", i)
		}
		if err := binWrite(mw,
			uint32(d.Stream), uint32(d.Count), d.SumEntropy, d.SumNovelty,
			uint32(d.Probes), d.Disagreed, uint32(d.Cooldown),
			uint64(d.Seen), uint64(d.Flagged), uint64(d.Emitted)); err != nil {
			return fmt.Errorf("pressure: write drift window %d: %w", i, err)
		}
	}
	if err := binWrite(mw, uint32(len(c.Fleet))); err != nil {
		return fmt.Errorf("pressure: write fleet count: %w", err)
	}
	for i, class := range c.Fleet {
		if len(class) == 0 || len(class) > maxCacheKeyLen {
			return fmt.Errorf("pressure: fleet stream %d class length %d out of range", i, len(class))
		}
		if err := binWrite(mw, uint16(len(class))); err != nil {
			return fmt.Errorf("pressure: write fleet stream %d: %w", i, err)
		}
		if _, err := mw.Write([]byte(class)); err != nil {
			return fmt.Errorf("pressure: write fleet stream %d: %w", i, err)
		}
	}
	if err := binWrite(w, crc.Sum32()); err != nil {
		return fmt.Errorf("pressure: write checksum: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint,
// verifying version, plausibility bounds, and the trailing CRC.
// Any malformed input — truncation, bit flips, version skew — yields
// an error and no partial state; callers treat every error as "cold
// start".
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("pressure: read magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("pressure: bad checkpoint magic %q", magic)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)
	var (
		version uint16
		gen     uint64
	)
	if err := binRead(tr, &version, &gen); err != nil {
		return nil, fmt.Errorf("pressure: read header: %w", err)
	}
	if version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("pressure: unsupported checkpoint version %d", version)
	}
	c := &Checkpoint{Generation: gen}
	var hasMarkov uint8
	if err := binRead(tr, &hasMarkov); err != nil {
		return nil, fmt.Errorf("pressure: read markov flag: %w", err)
	}
	switch hasMarkov {
	case 0:
	case 1:
		var (
			n     uint32
			alpha float64
			obs   uint64
		)
		if err := binRead(tr, &n, &alpha, &obs); err != nil {
			return nil, fmt.Errorf("pressure: read markov header: %w", err)
		}
		if n == 0 || n > maxMarkovModels {
			return nil, fmt.Errorf("pressure: implausible markov dimension %d", n)
		}
		if !plausibleFinite(alpha) || alpha < 0 {
			return nil, fmt.Errorf("pressure: implausible markov alpha %v", alpha)
		}
		m := &MarkovState{N: int(n), Alpha: alpha, Obs: int64(obs)}
		var err error
		if m.Counts, err = readFloats(tr, int(n)*int(n)); err != nil {
			return nil, fmt.Errorf("pressure: read markov matrix: %w", err)
		}
		if m.RowSum, err = readFloats(tr, int(n)); err != nil {
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
	var cacheN uint32
	if err := binRead(tr, &cacheN); err != nil {
		return nil, fmt.Errorf("pressure: read cache count: %w", err)
	}
	if cacheN > maxCacheEntries {
		return nil, fmt.Errorf("pressure: implausible cache entry count %d", cacheN)
	}
	c.Cache = make([]CacheEntry, 0, min(cacheN, readChunk))
	for i := 0; i < int(cacheN); i++ {
		var keyLen uint16
		if err := binRead(tr, &keyLen); err != nil {
			return nil, fmt.Errorf("pressure: read cache entry %d: %w", i, err)
		}
		if keyLen == 0 || keyLen > maxCacheKeyLen {
			return nil, fmt.Errorf("pressure: cache entry %d implausible key length %d", i, keyLen)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(tr, key); err != nil {
			return nil, fmt.Errorf("pressure: read cache entry %d key: %w", i, err)
		}
		var freq uint32
		if err := binRead(tr, &freq); err != nil {
			return nil, fmt.Errorf("pressure: read cache entry %d freq: %w", i, err)
		}
		c.Cache = append(c.Cache, CacheEntry{Key: string(key), Freq: int(freq)})
	}
	var driftN uint32
	if err := binRead(tr, &driftN); err != nil {
		return nil, fmt.Errorf("pressure: read drift count: %w", err)
	}
	if driftN > maxDriftWindows {
		return nil, fmt.Errorf("pressure: implausible drift window count %d", driftN)
	}
	c.Drift = make([]DriftWindow, 0, min(driftN, readChunk))
	for i := 0; i < int(driftN); i++ {
		var (
			stream, count, probes, cooldown uint32
			sumE, sumN, disagreed           float64
			seen, flagged, emitted          uint64
		)
		if err := binRead(tr, &stream, &count, &sumE, &sumN, &probes, &disagreed, &cooldown,
			&seen, &flagged, &emitted); err != nil {
			return nil, fmt.Errorf("pressure: read drift window %d: %w", i, err)
		}
		if !plausibleFinite(sumE) || !plausibleFinite(sumN) || !plausibleFinite(disagreed) {
			return nil, fmt.Errorf("pressure: drift window %d has non-finite sums", i)
		}
		c.Drift = append(c.Drift, DriftWindow{
			Stream:     int(stream),
			Count:      int(count),
			SumEntropy: sumE,
			SumNovelty: sumN,
			Probes:     int(probes),
			Disagreed:  disagreed,
			Cooldown:   int(cooldown),
			Seen:       int64(seen),
			Flagged:    int64(flagged),
			Emitted:    int64(emitted),
		})
	}
	if version >= 2 {
		var fleetN uint32
		if err := binRead(tr, &fleetN); err != nil {
			return nil, fmt.Errorf("pressure: read fleet count: %w", err)
		}
		if fleetN > maxFleetStreams {
			return nil, fmt.Errorf("pressure: implausible fleet stream count %d", fleetN)
		}
		if fleetN > 0 {
			c.Fleet = make([]string, 0, min(fleetN, readChunk))
			for i := 0; i < int(fleetN); i++ {
				var classLen uint16
				if err := binRead(tr, &classLen); err != nil {
					return nil, fmt.Errorf("pressure: read fleet stream %d: %w", i, err)
				}
				if classLen == 0 || classLen > maxCacheKeyLen {
					return nil, fmt.Errorf("pressure: fleet stream %d implausible class length %d", i, classLen)
				}
				class := make([]byte, classLen)
				if _, err := io.ReadFull(tr, class); err != nil {
					return nil, fmt.Errorf("pressure: read fleet stream %d class: %w", i, err)
				}
				c.Fleet = append(c.Fleet, string(class))
			}
		}
	}
	wantCRC := crc.Sum32()
	var gotCRC uint32
	if err := binRead(br, &gotCRC); err != nil {
		return nil, fmt.Errorf("pressure: read checksum: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("pressure: checkpoint checksum mismatch: stored %08x, computed %08x", gotCRC, wantCRC)
	}
	// Trailing garbage means the file is not what we wrote.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("pressure: trailing data after checkpoint")
	}
	return c, nil
}

// readChunk bounds what the decoder allocates ahead of the bytes that
// back it: header counts preallocate at most readChunk elements, and
// float sections are read readChunk values at a time, so memory grows
// with the bytes actually delivered, never with what a header claims.
const readChunk = 4096

// readFloats reads n little-endian float64s, a chunk at a time.
func readFloats(r io.Reader, n int) ([]float64, error) {
	xs := make([]float64, 0, min(n, readChunk))
	buf := make([]byte, 8*min(n, readChunk))
	for len(xs) < n {
		chunk := buf[:8*min(n-len(xs), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for i := 0; i < len(chunk); i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	return xs, nil
}

func plausibleFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// SaveCheckpoint writes c to path atomically (temp file + rename in
// the destination directory), so a crash mid-write leaves either the
// previous checkpoint or none — never a torn file.
func SaveCheckpoint(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("pressure: create checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteCheckpoint(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("pressure: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pressure: close checkpoint temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("pressure: publish checkpoint: %w", err)
	}
	return nil
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
