package prefetch

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"anole/internal/netsim"
	"anole/internal/xrand"
)

// scriptedCorruptLink wraps a Medium with a fixed per-transfer corruption
// script (false past its end), exercising the TransferCorrupter path
// without a live injector.
type scriptedCorruptLink struct {
	netsim.Medium
	script []bool
	i      int
}

func (l *scriptedCorruptLink) CorruptTransfer() bool {
	if l.i >= len(l.script) {
		return false
	}
	v := l.script[l.i]
	l.i++
	return v
}

func newCorruptLF(t *testing.T, cfg netsim.Config, models []Model, script []bool) *LinkFetcher {
	t.Helper()
	link, err := netsim.NewLink(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewLinkFetcher(&scriptedCorruptLink{Medium: link, script: script}, models, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return lf
}

func TestLinkFetcherDemandQuarantinesAndRefetches(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newCorruptLF(t, alwaysGood(), models, []bool{true})

	size, stall, err := lf.FetchModelNow(context.Background(), "M_0")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1<<20 {
		t.Fatalf("size %d", size)
	}
	// The corrupted transfer's time is paid, then the refetch's: two
	// Good-state transfers.
	want := 2 * goodTransfer(1<<20)
	if diff := stall - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("stall %v, want ≈%v (corrupt transfer + refetch)", stall, want)
	}
	st := lf.Stats()
	if st.Corrupted != 1 || st.Quarantined != 1 {
		t.Fatalf("corrupted %d quarantined %d, want 1/1", st.Corrupted, st.Quarantined)
	}
	if st.Transfers != 1 || st.Bytes != 1<<20 {
		t.Fatalf("transfers %d bytes %d: the quarantined arrival must not count", st.Transfers, st.Bytes)
	}
}

func TestLinkFetcherDemandCorruptCapFails(t *testing.T) {
	script := make([]bool, demandCorruptCap+10)
	for i := range script {
		script[i] = true
	}
	models := []Model{{Name: "M_0", Bytes: 1 << 10}}
	lf := newCorruptLF(t, alwaysGood(), models, script)

	_, _, err := lf.FetchModelNow(context.Background(), "M_0")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	st := lf.Stats()
	if st.Corrupted != demandCorruptCap {
		t.Fatalf("corrupted %d, want %d", st.Corrupted, demandCorruptCap)
	}
	if st.Transfers != 0 {
		t.Fatalf("transfers %d, want 0 — no corrupt payload may be delivered", st.Transfers)
	}
}

func TestLinkFetcherStartBackgroundCorruptNotifiesError(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 3 << 20}}
	lf := newCorruptLF(t, alwaysGood(), models, []bool{true})

	var gotBytes int64 = -1
	var gotErr error
	_, err := lf.StartBackground("M_0", func(bytes int64, err error) {
		gotBytes, gotErr = bytes, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lf.Tick()
	}
	if !errors.Is(gotErr, ErrCorrupt) {
		t.Fatalf("notified err = %v, want ErrCorrupt", gotErr)
	}
	if gotBytes != 0 {
		t.Fatalf("notified %d bytes with a corrupt payload, want 0", gotBytes)
	}
	if st := lf.Stats(); st.Corrupted != 1 || st.Transfers != 0 {
		t.Fatalf("corrupted %d transfers %d, want 1/0", st.Corrupted, st.Transfers)
	}
}

func TestLinkFetcherDemandDownLimitFailsFast(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, goodThenDown(), models)
	lf.SetDemandDownLimit(0)
	lf.Tick() // Good → Down, forever
	_, stall, err := lf.FetchModelNow(context.Background(), "M_0")
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	if stall != 0 {
		t.Fatalf("stall %v with a zero down limit, want 0", stall)
	}
	if st := lf.Stats(); st.DownFails != 1 {
		t.Fatalf("down fails %d, want 1", st.DownFails)
	}
}

func TestLinkFetcherDemandDownLimitBoundsOutageWait(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, goodThenDown(), models)
	lf.SetDemandDownLimit(5)
	lf.Tick() // Good → Down, forever
	_, stall, err := lf.FetchModelNow(context.Background(), "M_0")
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	if want := 5 * lf.Interval(); stall != want {
		t.Fatalf("stall %v, want %v (5 waited frames)", stall, want)
	}
	if !strings.Contains(err.Error(), "after 5 frames") {
		t.Fatalf("error %q does not report the waited frames", err)
	}
}
