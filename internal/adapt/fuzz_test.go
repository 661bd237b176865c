package adapt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// bombReport is a drift report whose frame pack header claims one frame
// of 16384 cells × 64 features (8 MiB of float64s) but carries no cell
// data at all.
func bombReport(tb testing.TB) []byte {
	tb.Helper()
	var pack bytes.Buffer
	pack.WriteString("ANLF")
	// version, featDim, cells, count
	binary.Write(&pack, binary.LittleEndian, []uint16{1, 64, 16384})
	binary.Write(&pack, binary.LittleEndian, uint32(1))
	// scene index, brightness, contrast, object count; then nothing.
	binary.Write(&pack, binary.LittleEndian, uint16(0))
	binary.Write(&pack, binary.LittleEndian, []float64{1, 1})
	pack.WriteByte(0)
	body, err := json.Marshal(map[string][]byte{"exemplars": pack.Bytes()})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestReadReportBoundsAllocationByInput pins the drift endpoint's decoder
// against header-driven allocation: a report a few dozen bytes long must
// not make ReadReport allocate the megabytes its frame pack header
// claims before it finds the cell data missing.
func TestReadReportBoundsAllocationByInput(t *testing.T) {
	body := bombReport(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadReport(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("report with no cell data decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte report allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

// FuzzReadReport throws arbitrary bytes at the drift-report decoder that
// serves POST /v1/drift: ReadReport must never panic, and a report it
// accepts must re-encode and decode to the same frames and trace.
func FuzzReadReport(f *testing.F) {
	w, err := synth.NewWorld(synth.DefaultConfig(5))
	if err != nil {
		f.Fatal(err)
	}
	rng := xrand.NewLabeled(5, "fuzz-report")
	frames := []*synth.Frame{
		w.GenerateFrame(synth.SceneFromIndex(0), 1, rng),
		w.GenerateFrame(synth.SceneFromIndex(7), 1, rng),
	}
	for _, trace := range []string{"", "d3.17"} {
		rep := &Report{Stream: 3, Seq: 17, Window: 30, Centroid: tensor.Vector{0.5, -1}, Exemplars: frames, Trace: trace}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if trace != "" {
			// An envelope trace longer than a frame pack can carry.
			long := `"trace":"` + strings.Repeat("x", 300) + `"`
			f.Add([]byte(strings.Replace(buf.String(), `"trace":"`+trace+`"`, long, 1)))
		}
	}
	f.Add(bombReport(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"exemplars":""}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		again, err := ReadReport(&buf)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if again.Trace != rep.Trace || len(again.Exemplars) != len(rep.Exemplars) {
			t.Fatalf("round trip changed the report: trace %q→%q, %d→%d exemplars",
				rep.Trace, again.Trace, len(rep.Exemplars), len(again.Exemplars))
		}
		for i, f := range again.Exemplars {
			want := rep.Exemplars[i]
			if f.Scene != want.Scene || len(f.Objects) != len(want.Objects) || !sameFloats(f.Cells, want.Cells) {
				t.Fatalf("exemplar %d changed in the round trip", i)
			}
		}
	})
}

// sameFloats compares bit patterns, so NaN cells from fuzzed input
// compare equal to themselves.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
