package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsWithInjectedClock(t *testing.T) {
	var clock time.Duration
	tr := NewTracer(8, func() time.Duration { return clock })
	clock = 100 * time.Millisecond
	tr.Record(Span{Seq: tr.NextSeq(), Stage: StageDecide, Dur: time.Millisecond})
	clock = 200 * time.Millisecond
	tr.Record(Span{Seq: tr.NextSeq(), Stage: StageDetect, Dur: 2 * time.Millisecond})

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Start != 100*time.Millisecond || spans[1].Start != 200*time.Millisecond {
		t.Fatalf("starts = %v, %v — clock not injected", spans[0].Start, spans[1].Start)
	}
	if spans[0].Seq != 1 || spans[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", spans[0].Seq, spans[1].Seq)
	}
}

func TestTracerRingOverwritesOldestFirst(t *testing.T) {
	tr := NewTracer(4, func() time.Duration { return 0 })
	for i := 0; i < 10; i++ {
		tr.Record(Span{Seq: int64(i)})
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := int64(6 + i); s.Seq != want {
			t.Fatalf("span %d seq = %d, want %d (oldest-first order)", i, s.Seq, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0, nil)
	if got := cap(tr.ring); got != DefaultSpanBuffer {
		t.Fatalf("cap = %d, want %d", got, DefaultSpanBuffer)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{Seq: tr.NextSeq(), Stream: stream, Stage: StageCache})
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 8*500 {
		t.Fatalf("total = %d", tr.Total())
	}
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("retained %d spans", got)
	}
}

// TestFrameTraceFormat pins the frame trace ID format "f<stream>.<seq>"
// across the digit counts strconv treats differently (0, below 100, at
// least 100), and that minting one allocates only the returned string.
func TestFrameTraceFormat(t *testing.T) {
	for _, c := range []struct {
		stream int
		seq    int64
		want   string
	}{
		{0, 0, "f0.0"},
		{0, 7, "f0.7"},
		{3, 0, "f3.0"},
		{42, 99, "f42.99"},
		{99, 100, "f99.100"},
		{100, 42, "f100.42"},
		{1234, 9876543210, "f1234.9876543210"},
		{-1, -5, "f-1.-5"},
	} {
		if got := FrameTrace(c.stream, c.seq); got != c.want {
			t.Errorf("FrameTrace(%d, %d) = %q, want %q", c.stream, c.seq, got, c.want)
		}
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = FrameTrace(1234, 9876543210) }); allocs != 1 {
		t.Fatalf("FrameTrace: %v allocs/op, want 1 (%s)", allocs, sink)
	}
}
