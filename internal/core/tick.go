package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"anole/internal/detect"
	"anole/internal/nn"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// batchMetrics are the batched-execution telemetry handles. All handles
// are nil-safe, so the zero value (no registry) costs one nil check per
// site.
type batchMetrics struct {
	// dispatches counts batched decide dispatches (one per bundle
	// partition per chunk); batchedFrames counts the frames those
	// dispatches carried, so batchedFrames/dispatches is the realized
	// mean batch size.
	dispatches    *telemetry.Counter
	batchedFrames *telemetry.Counter
	// batchSize is the per-dispatch frame-count distribution.
	batchSize *telemetry.Histogram
	// occupancy is the fraction of configured streams ready in the most
	// recent tick — 1.0 while all streams still have frames, decaying as
	// shorter streams drain.
	occupancy *telemetry.Gauge
}

func newBatchMetrics(reg *telemetry.Registry) batchMetrics {
	return batchMetrics{
		dispatches:    reg.Counter("anole_core_batch_dispatches_total", "batched decide dispatches"),
		batchedFrames: reg.Counter("anole_core_batched_frames_total", "frames processed through the batched path"),
		batchSize:     reg.Histogram("anole_core_batch_size_frames", "frames per batched dispatch", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		occupancy:     reg.Gauge("anole_core_tick_occupancy", "fraction of streams ready in the current tick"),
	}
}

// bundleBatch is the batched working set for one bundle: held
// encoder/head batch scratches, the tick positions currently staged on
// it with their frame features, and the per-model grouping for the
// detector pass. Streams on a heterogeneous fleet may run different
// planner variants, and each variant is its own Bundle — so batching
// groups by bundle, and a homogeneous fleet collapses to exactly one
// group.
type bundleBatch struct {
	bundle *Bundle
	enc    *nn.BatchScratch // held for the encoder; its In holds feats
	head   *nn.BatchScratch // held for the decision head

	// posns lists the tick positions staged on this bundle in the
	// current chunk; feats (the frame features, computed once per frame
	// and read again by detection), embs and scores are row-aligned
	// with posns.
	posns  []int
	feats  *tensor.Matrix
	embs   *tensor.Matrix
	scores *tensor.Matrix

	// Per model u: which tick positions resolved to it, the reusable
	// frame/feature/dst slices handed to DetectBatchFeatures, and the
	// closure that runs the group on its own goroutine (built once, so
	// dispatching it allocates nothing).
	members   [][]int
	gframes   [][]*synth.Frame
	gfeats    [][]tensor.Vector
	gdsts     [][][]detect.CellPred
	detectFns []func()
}

func newBundleBatch(b *Bundle) *bundleBatch {
	n := b.NumModels()
	return &bundleBatch{
		bundle:  b,
		enc:     b.Encoder.Weights.AcquireBatchScratch(),
		head:    b.Decision.Head.AcquireBatchScratch(),
		members: make([][]int, n),
		gframes: make([][]*synth.Frame, n),
		gfeats:  make([][]tensor.Vector, n),
		gdsts:   make([][][]detect.CellPred, n),
	}
}

// release returns the held scratches to the shared pool.
func (g *bundleBatch) release() {
	g.bundle.Encoder.Weights.ReleaseBatchScratch(g.enc)
	g.bundle.Decision.Head.ReleaseBatchScratch(g.head)
	g.enc, g.head = nil, nil
}

// batchState is the reusable working set of the tick pipeline: one
// bundleBatch per distinct stream bundle (lazily created; planner
// variants keep theirs across re-plans, swapped-out bundles release
// theirs on the swap), and the per-position frame bookkeeping of the
// current tick. It belongs to the ProcessStreams goroutine; the
// detector groups borrow disjoint slices of it.
type batchState struct {
	groups map[*Bundle]*bundleBatch
	order  []*bundleBatch // groups in first-staged order this chunk

	// Per tick position j (index into the tick's ready list): the
	// in-flight frame result, the frame's shed rung, whether the result
	// is already terminal (disposed, shed or failed — later stages skip
	// it), the group and batch row it was staged on, the tracer
	// sequence, and the simulated detect duration.
	res     []FrameResult
	rung    []pressure.Rung
	done    []bool
	groupOf []*bundleBatch
	rowOf   []int
	seqs    []int64
	durs    []time.Duration

	// live lists the positions admitted into the pipeline this tick.
	live []int

	// The current tick's inputs, as processTick received them, for the
	// detector groups.
	tick   int
	ready  []int
	frames [][]*synth.Frame

	// sem bounds concurrent detector groups at the worker budget; wg
	// waits for a chunk's groups.
	sem chan struct{}
	wg  sync.WaitGroup
}

func newBatchState(workers int) *batchState {
	return &batchState{
		groups: make(map[*Bundle]*bundleBatch),
		sem:    make(chan struct{}, workers),
	}
}

// ensure sizes the per-position bookkeeping for an n-frame tick.
func (bs *batchState) ensure(n int) {
	if cap(bs.res) < n {
		bs.res = make([]FrameResult, n)
		bs.rung = make([]pressure.Rung, n)
		bs.done = make([]bool, n)
		bs.groupOf = make([]*bundleBatch, n)
		bs.rowOf = make([]int, n)
		bs.seqs = make([]int64, n)
		bs.durs = make([]time.Duration, n)
	}
	bs.res = bs.res[:n]
	bs.rung = bs.rung[:n]
	bs.done = bs.done[:n]
	bs.groupOf = bs.groupOf[:n]
	bs.rowOf = bs.rowOf[:n]
	bs.seqs = bs.seqs[:n]
	bs.durs = bs.durs[:n]
}

// groupFor returns the bundleBatch for b, creating it on first use.
func (bs *batchState) groupFor(b *Bundle) *bundleBatch {
	g, ok := bs.groups[b]
	if !ok {
		g = newBundleBatch(b)
		bs.groups[b] = g
	}
	return g
}

// releaseUnused returns the scratches of groups whose bundle no stream
// runs any more — a canary rolled back and its candidate retired.
func (bs *batchState) releaseUnused(streams []*Runtime) {
	for b, g := range bs.groups {
		if !slices.ContainsFunc(streams, func(rt *Runtime) bool { return rt.Bundle() == b }) {
			g.release()
			delete(bs.groups, b)
		}
	}
}

// releaseAll returns every group's scratches to the shared pool.
func (bs *batchState) releaseAll() {
	for b, g := range bs.groups {
		g.release()
		delete(bs.groups, b)
	}
	bs.order = bs.order[:0]
}

// processTick runs one tick's ready frames through the pipeline
// admit → decide → resolve → detect → finish. Admission covers the
// whole tick; the admitted frames then run the remaining stages in
// consecutive chunks of at most maxBatch frames; results and observer
// calls are emitted last, in ascending stream order.
func (m *MultiRuntime) processTick(tick int, ready []int, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) error {
	bs := m.bstate
	bs.ensure(len(ready))
	bs.tick, bs.ready, bs.frames = tick, ready, streams
	if err := m.admit(tick, ready, streams); err != nil {
		return err
	}
	for off := 0; off < len(bs.live); off += m.maxBatch {
		chunk := bs.live[off:min(off+m.maxBatch, len(bs.live))]
		if err := m.processChunk(tick, ready, chunk, streams); err != nil {
			return err
		}
	}
	for j, i := range ready {
		if obs != nil {
			if err := obs(i, streams[i][tick], bs.res[j]); err != nil {
				return fmt.Errorf("core: stream %d observer: %w", i, err)
			}
		}
		results[i][tick] = bs.res[j]
	}
	return nil
}

// admit is the per-stream filter in front of the pipeline. It disposes
// quarantined streams' frames (the tick never waits on a dead stream),
// assigns every other frame the controller's current rung — at ShedDrop
// one round-robin probe frame is served downgraded instead, so the
// controller keeps receiving latency samples and can observe recovery —
// and validates frames before anything touches a shared clock. The
// admitted positions land in bs.live.
func (m *MultiRuntime) admit(tick int, ready []int, streams [][]*synth.Frame) error {
	bs, ps := m.bstate, m.press
	rung := pressure.ShedNone
	if ps != nil {
		rung = ps.ctl.Rung()
	}
	bs.live = bs.live[:0]
	for j, i := range ready {
		bs.res[j], bs.rung[j], bs.done[j] = FrameResult{}, rung, false
		if ps != nil && ps.wd.Quarantined(i) {
			bs.res[j], bs.done[j] = m.disposeQuarantined(i), true
			continue
		}
		bs.live = append(bs.live, j)
	}
	if rung >= pressure.ShedDrop && len(bs.live) > 0 {
		bs.rung[bs.live[ps.probeRR%len(bs.live)]] = pressure.ShedDowngrade
		ps.probeRR++
	}
	live := bs.live[:0]
	for _, j := range bs.live {
		i := ready[j]
		if err := m.streams[i].validateFrame(streams[i][tick]); err != nil {
			if ps == nil {
				return fmt.Errorf("core: stream %d: %w", i, err)
			}
			bs.res[j], bs.done[j] = m.failFrame(i), true
			continue
		}
		live = append(live, j)
	}
	bs.live = live
	return nil
}

// processChunk runs decide → resolve → detect → finish over a chunk of
// admitted tick positions.
//
// Decide partitions the frames to serve by the bundle each stream
// currently runs (one partition on a homogeneous fleet, one per planner
// variant in use on a mixed fleet) and runs the scene encoder and
// decision head as one matrix batch per partition. Resolve runs every
// frame's hysteresis, cache resolution and device accounting — or, for
// a dropped frame, only its link tick — sequentially in ascending stream
// order, so the shared cache and link see the same order every run.
// Detect runs one batched detector pass per (bundle, serving model)
// group. Finish scores, books and plans prefetches in stream order
// again. Per frame the arithmetic is bit-identical to
// Runtime.ProcessFrame: the batched kernels preserve each dot product's
// summation order and the stage methods are shared.
func (m *MultiRuntime) processChunk(tick int, ready, chunk []int, streams [][]*synth.Frame) error {
	bs := m.bstate

	// Decide. Re-plans swap bundles between ticks, never inside one, so
	// the partition is stable for the whole chunk.
	for _, g := range bs.order {
		g.posns = g.posns[:0]
	}
	bs.order = bs.order[:0]
	for _, j := range chunk {
		if bs.rung[j] >= pressure.ShedDrop {
			continue
		}
		g := bs.groupFor(m.streams[ready[j]].Bundle())
		if len(g.posns) == 0 {
			bs.order = append(bs.order, g)
		}
		bs.groupOf[j] = g
		bs.rowOf[j] = len(g.posns)
		g.posns = append(g.posns, j)
	}
	for _, g := range bs.order {
		rows := len(g.posns)
		feats := g.enc.In(rows, synth.FrameFeatureDim(g.bundle.FeatDim))
		for r, j := range g.posns {
			synth.FrameFeatureInto(feats.Row(r), streams[ready[j]][tick])
		}
		g.feats = feats
		g.embs = g.bundle.Encoder.EmbedBatchInto(g.enc.Out(rows, g.bundle.Encoder.EmbedDim()), feats, g.enc)
		g.scores = g.bundle.Decision.ScoresBatchInto(g.head.Out(rows, g.bundle.NumModels()), g.embs, g.head)
		m.bmet.dispatches.Inc()
		m.bmet.batchSize.Observe(float64(rows))
		m.bmet.batchedFrames.Add(int64(rows))
	}

	// Resolve: clocks, hysteresis, cache and link in global ascending
	// stream order — interleaving the partitions here keeps the shared
	// state's request order independent of the partitioning.
	for _, j := range chunk {
		i := ready[j]
		rt := m.streams[i]
		f := streams[i][tick]
		res := &bs.res[j]
		if bs.rung[j] >= pressure.ShedDrop {
			rt.shedFrame()
			*res, bs.done[j] = disposedResult(VerdictShed), true
			continue
		}
		seq := rt.beginFrame()
		g, r := bs.groupOf[j], bs.rowOf[j]
		rt.adoptDecision(g.embs.Row(r), g.scores.Row(r))
		rank := rt.stageDecide(seq, res)
		if !(bs.rung[j] >= pressure.ShedDowngrade && rt.resolveDowngrade(f, seq, res)) {
			// Below ShedDowngrade (or nothing resident to downgrade onto)
			// the normal resolve path runs, link stalls and all.
			if err := rt.stageResolve(f, seq, rank, res); err != nil {
				if m.press == nil {
					return fmt.Errorf("core: stream %d: %w", i, err)
				}
				*res, bs.done[j] = m.failFrame(i), true
				continue
			}
		}
		bs.durs[j] = rt.detectAccount(f, res)
		bs.seqs[j] = seq
	}

	// Detect: one batched detector pass per (bundle, serving model)
	// group, groups in parallel up to the worker budget. Each stream
	// belongs to exactly one group, so the groups touch disjoint predsBuf
	// sets.
	groups := 0
	for _, g := range bs.order {
		for u := range g.members {
			g.members[u] = g.members[u][:0]
		}
		for _, j := range g.posns {
			if bs.done[j] {
				continue
			}
			u := bs.res[j].Used
			if len(g.members[u]) == 0 {
				groups++
			}
			g.members[u] = append(g.members[u], j)
		}
	}
	if groups <= 1 || m.workers <= 1 {
		for _, g := range bs.order {
			for u := range g.members {
				if len(g.members[u]) > 0 {
					m.detectGroup(g, u)
				}
			}
		}
	} else {
		for _, g := range bs.order {
			if g.detectFns == nil {
				g.detectFns = m.detectFuncs(g)
			}
			for u := range g.members {
				if len(g.members[u]) == 0 {
					continue
				}
				bs.wg.Add(1)
				bs.sem <- struct{}{}
				go g.detectFns[u]()
			}
		}
		bs.wg.Wait()
	}

	// Finish: scoring and bookkeeping in stream order. Every rung at or
	// above ShedPrefetch suppresses background prefetch planning.
	for _, j := range chunk {
		i := ready[j]
		res := &bs.res[j]
		if !bs.done[j] {
			rt := m.streams[i]
			rt.finishDetect(streams[i][tick], bs.seqs[j], bs.durs[j], res)
			rt.stageFinish(res, bs.rung[j] < pressure.ShedPrefetch)
		}
		// A frame served in full above ShedNone had its prefetch planning
		// suppressed; dropped and downgraded frames were counted by their
		// stream as the ladder disposed of them.
		if bs.rung[j] > pressure.ShedNone && res.Verdict == VerdictServed {
			m.press.mon.Counters().ShedPrefetch.Inc()
		}
	}
	return nil
}

// detectGroup runs one (bundle, serving model) group's batched detector
// pass over its member frames of the current tick, reusing the features
// the decide stage computed, and writes each stream's predictions back
// into that stream's predsBuf for finishDetect.
func (m *MultiRuntime) detectGroup(g *bundleBatch, u int) {
	bs := m.bstate
	frames := g.gframes[u][:0]
	feats := g.gfeats[u][:0]
	dsts := g.gdsts[u][:0]
	for _, j := range g.members[u] {
		i := bs.ready[j]
		frames = append(frames, bs.frames[i][bs.tick])
		feats = append(feats, g.feats.Row(bs.rowOf[j]))
		dsts = append(dsts, m.streams[i].predsBuf)
	}
	out := g.bundle.Detectors[u].DetectBatchFeatures(dsts, frames, feats)
	for k, j := range g.members[u] {
		m.streams[bs.ready[j]].predsBuf = out[k]
	}
	g.gframes[u], g.gfeats[u], g.gdsts[u] = frames, feats, out
}

// detectFuncs builds g's per-model closures that run detectGroup on a
// worker goroutine and release its slot of the worker budget.
func (m *MultiRuntime) detectFuncs(g *bundleBatch) []func() {
	fns := make([]func(), len(g.members))
	for u := range fns {
		fns[u] = func() {
			defer m.bstate.wg.Done()
			m.detectGroup(g, u)
			<-m.bstate.sem
		}
	}
	return fns
}
