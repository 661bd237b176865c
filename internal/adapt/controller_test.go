package adapt

import (
	"bytes"
	"errors"
	"testing"

	"anole/internal/core"
	"anole/internal/repo"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

func TestControllerClustersAndRetrains(t *testing.T) {
	fx := testutil.Shared(t)
	pub := newCapturePublisher()
	reg := telemetry.NewRegistry()
	cfg := testControllerConfig(fx, 31)
	cfg.Metrics = reg
	ctrl, err := NewController(fx.Bundle, pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := driftReports(fx, novelScene(t, fx.Bundle), 3, 24, 31)

	// Report 1: same cluster but below MinReports — no retrain yet.
	gen, published, err := ctrl.Submit(reports[0])
	if err != nil || published || gen != 0 {
		t.Fatalf("first report: gen %d published %v err %v", gen, published, err)
	}
	// Report 2 completes the evidence: retrain and publish.
	gen, published, err = ctrl.Submit(reports[1])
	if err != nil {
		t.Fatal(err)
	}
	if !published || gen != 2 {
		t.Fatalf("second report: gen %d published %v", gen, published)
	}
	nb := pub.bundles[2]
	if nb == nil {
		t.Fatal("no bundle published")
	}
	if nb.NumModels() != fx.Bundle.NumModels()+1 {
		t.Fatalf("expanded to %d models from %d", nb.NumModels(), fx.Bundle.NumModels())
	}
	// Report 3 lands in the now-retrained cluster: absorbed silently.
	gen, published, err = ctrl.Submit(reports[2])
	if err != nil || published || gen != 0 {
		t.Fatalf("post-retrain report: gen %d published %v err %v", gen, published, err)
	}
	if got := telemetry.Map(reg)["anole_adapt_retrains_total"]; got != 1 {
		t.Fatalf("retrains %v, want 1", got)
	}
	if err := telemetry.ValidateScheme(reg.Gather()); err != nil {
		t.Fatalf("metric scheme: %v", err)
	}
}

// The controller must be deterministic: the same reports in the same
// order produce a bit-identical published bundle.
func TestControllerDeterministic(t *testing.T) {
	fx := testutil.Shared(t)
	scene := novelScene(t, fx.Bundle)
	serialize := func() []byte {
		pub := newCapturePublisher()
		ctrl, err := NewController(fx.Bundle, pub, testControllerConfig(fx, 77))
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range driftReports(fx, scene, 2, 24, 77) {
			if _, _, err := ctrl.Submit(rep); err != nil {
				t.Fatal(err)
			}
		}
		nb := pub.bundles[2]
		if nb == nil {
			t.Fatal("no bundle published")
		}
		var buf bytes.Buffer
		if err := repo.WriteBundle(&buf, nb); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(serialize(), serialize()) {
		t.Fatal("same seed and reports produced different bundles")
	}
}

func TestControllerRejectsMalformedReports(t *testing.T) {
	fx := testutil.Shared(t)
	ctrl, err := NewController(fx.Bundle, newCapturePublisher(), testControllerConfig(fx, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Submit(nil); err == nil {
		t.Fatal("nil report accepted")
	}
	if _, _, err := ctrl.Submit(&Report{Centroid: make([]float64, 3)}); err == nil {
		t.Fatal("wrong-dimension centroid accepted")
	}
}

func TestControllerRetrainHookAndRollback(t *testing.T) {
	fx := testutil.Shared(t)
	scene := novelScene(t, fx.Bundle)

	// A failing hook abandons the retrain; the cluster stays eligible, so
	// the very next report retries (and succeeds once the hook relents).
	pub := newCapturePublisher()
	cfg := testControllerConfig(fx, 13)
	hookErr := errors.New("distillation failed")
	calls := 0
	cfg.RetrainHook = func(b *core.Bundle) (*core.Bundle, error) {
		calls++
		if calls == 1 {
			return nil, hookErr
		}
		return b, nil
	}
	ctrl, err := NewController(fx.Bundle, pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := driftReports(fx, scene, 3, 24, 13)
	if _, _, err := ctrl.Submit(reports[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Submit(reports[1]); !errors.Is(err, hookErr) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	gen, published, err := ctrl.Submit(reports[2])
	if err != nil || !published || gen != 2 {
		t.Fatalf("retry after hook failure: gen %d published %v err %v", gen, published, err)
	}

	// NoteRollback reopens the cluster: it needs fresh evidence (weight
	// and frames reset) before it may retrain again.
	if err := ctrl.NoteRollback(2, 1); err != nil {
		t.Fatal(err)
	}
	gen, published, err = ctrl.Submit(reports[0])
	if err != nil || published || gen != 0 {
		t.Fatalf("reopened cluster retrained off one report: gen %d published %v err %v", gen, published, err)
	}
	gen, published, err = ctrl.Submit(reports[1])
	if err != nil || !published || gen != 3 {
		t.Fatalf("reopened cluster with fresh evidence: gen %d published %v err %v", gen, published, err)
	}
}

// A repo.Server publisher closes the cloud half end to end, including
// the rollback path through the rollbacker interface.
func TestControllerAgainstRepoServer(t *testing.T) {
	fx := testutil.Shared(t)
	srv, err := repo.NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(fx.Bundle, srv, testControllerConfig(fx, 21))
	if err != nil {
		t.Fatal(err)
	}
	seedBlob := append([]byte(nil), srv.BundleBytes()...)
	for _, rep := range driftReports(fx, novelScene(t, fx.Bundle), 2, 24, 21) {
		if _, _, err := ctrl.Submit(rep); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Generation() != 2 {
		t.Fatalf("server at generation %d after retrain", srv.Generation())
	}
	if err := ctrl.NoteRollback(2, 1); err != nil {
		t.Fatal(err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("server at generation %d after rollback", srv.Generation())
	}
	if !bytes.Equal(srv.BundleBytes(), seedBlob) {
		t.Fatal("rollback did not restore the seed bundle bit-for-bit")
	}
}
