package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anole/internal/nn"
	"anole/internal/pressure"
	"anole/internal/stats"
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

// bundleBatch is the batched working set for one bundle: the tick
// positions currently staged on it, their features, embeddings and
// scores, and the per-model grouping for the detector pass. Streams on
// a heterogeneous fleet may run different planner variants, and each
// variant is its own Bundle — so batching groups by bundle, and a
// homogeneous fleet collapses to exactly one group.
type bundleBatch struct {
	bundle *Bundle

	// posns lists the tick positions staged on this bundle in the
	// current chunk; feats (the frame features, computed once per frame
	// and read again by detection), embs and scores are row-aligned
	// with posns, carved from the batch state's stage.
	posns               []int
	feats, embs, scores tensor.Matrix

	// members[u] lists the tick positions that resolved to model u.
	members [][]int
}

func newBundleBatch(b *Bundle) *bundleBatch {
	return &bundleBatch{bundle: b, members: make([][]int, b.NumModels())}
}

// dims returns the widths of one staged row's frame feature,
// embedding and scores.
func (g *bundleBatch) dims() (fd, ed, nm int) {
	return synth.FrameFeatureDim(g.bundle.FeatDim), g.bundle.Encoder.EmbedDim(), g.bundle.NumModels()
}

// shape carves feats, embs and scores for the rows staged on g from the
// front of stage and returns the rest.
func (g *bundleBatch) shape(stage []float64) []float64 {
	rows := len(g.posns)
	fd, ed, nm := g.dims()
	g.feats = tensor.Matrix{Rows: rows, Cols: fd, Data: stage[:rows*fd]}
	stage = stage[rows*fd:]
	g.embs = tensor.Matrix{Rows: rows, Cols: ed, Data: stage[:rows*ed]}
	stage = stage[rows*ed:]
	g.scores = tensor.Matrix{Rows: rows, Cols: nm, Data: stage[:rows*nm]}
	return stage[rows*nm:]
}

// decideBlockRows is how many rows of a bundle partition one decide
// work item carries: their frame features, the scene encoder and
// decision head over those rows as one GEMM per layer, and their
// ranking.
const decideBlockRows = 16

// decideBlock is one decide work item: rows [lo, hi) of g's partition.
type decideBlock struct {
	g      *bundleBatch
	lo, hi int
}

// decideWorker is one worker's decide working set: the scratch behind
// the encoder's and head's intermediate activations for every block the
// worker runs in a chunk (borrowed from the shared pool for the decide
// stage), and the headers of the block's row views of its partition's
// feats, embs and scores.
type decideWorker struct {
	scratch             *nn.BatchScratch
	feats, embs, scores tensor.Matrix
}

// detectSliceFrames is how many frames one detect work item carries.
// The detector runs each frame's cells as one batch whatever the slice
// holds, so the size sets only the fan-out granularity: how many work
// items a tick's detection is cut into for the workers to pull.
const detectSliceFrames = 8

// detectSlice is one detect work item: up to detectSliceFrames tick
// positions served by model u of g's bundle, with its own reusable
// frame/feature/score slices for ScoreBatch.
type detectSlice struct {
	g      *bundleBatch
	u      int
	posns  []int
	frames []*synth.Frame
	feats  []tensor.Vector
	scores []stats.PRF1
}

// batchState is the reusable working set of the tick pipeline: one
// bundleBatch per distinct stream bundle (lazily created; planner
// variants keep theirs across re-plans, swapped-out bundles release
// theirs on the swap), and the per-position frame bookkeeping of the
// current tick. It belongs to the ProcessStreams goroutine; the fan-out
// stages lend its workers disjoint rows and slices of it.
type batchState struct {
	groups map[*Bundle]*bundleBatch
	order  []*bundleBatch // groups in first-staged order this chunk

	// Per tick position j (index into the tick's ready list): the
	// in-flight frame result, the frame's shed rung, whether the result
	// is already terminal (disposed, shed or failed — later stages skip
	// it), the row it was staged on in its bundle's partition, the
	// tracer sequence, and the simulated detect duration.
	res   []FrameResult
	rung  []pressure.Rung
	done  []bool
	rowOf []int
	seqs  []int64
	durs  []time.Duration

	// live lists the positions admitted into the pipeline this tick;
	// stage backs every partition's feats, embs and scores in the
	// current chunk; blocks are the chunk's decide blocks and work its
	// detect slices.
	live   []int
	stage  []float64
	blocks []decideBlock
	work   []detectSlice

	// The current tick's inputs, as processTick received them, for the
	// fan-out stages.
	tick   int
	ready  []int
	frames [][]*synth.Frame

	// pool runs the fan-out stages; decideFn and detectFn are its
	// per-item functions, built once so a tick allocates nothing.
	// decide[w] is worker w's decide working set.
	pool               *fanOut
	decideFn, detectFn func(w, k int)
	decide             []decideWorker
}

func newBatchState(m *MultiRuntime, workers int) *batchState {
	bs := &batchState{
		groups: make(map[*Bundle]*bundleBatch),
		blocks: make([]decideBlock, 0, (m.maxBatch+decideBlockRows-1)/decideBlockRows),
		pool:   newFanOut(workers),
		decide: make([]decideWorker, workers),
	}
	bs.decideFn, bs.detectFn = m.decideBlock, m.detectSlice
	return bs
}

// ensure sizes the per-position bookkeeping for an n-frame tick.
func (bs *batchState) ensure(n int) {
	if cap(bs.res) < n {
		bs.res = make([]FrameResult, n)
		bs.rung = make([]pressure.Rung, n)
		bs.done = make([]bool, n)
		bs.rowOf = make([]int, n)
		bs.seqs = make([]int64, n)
		bs.durs = make([]time.Duration, n)
	}
	bs.res = bs.res[:n]
	bs.rung = bs.rung[:n]
	bs.done = bs.done[:n]
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

// releaseUnused drops the groups whose bundle no stream runs any more
// — a canary rolled back and its candidate retired.
func (bs *batchState) releaseUnused(streams []*Runtime) {
	for b := range bs.groups {
		if !slices.ContainsFunc(streams, func(rt *Runtime) bool { return rt.Bundle() == b }) {
			delete(bs.groups, b)
		}
	}
}

// releaseAll drops every group.
func (bs *batchState) releaseAll() {
	clear(bs.groups)
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
// variant in use on a mixed fleet) and cuts each partition into blocks
// of at most decideBlockRows rows. One block computes its frames'
// features, runs the scene encoder and decision head over its rows as
// one GEMM per layer, and ranks each row. Resolve runs every
// frame's hysteresis, cache resolution and device accounting — or, for
// a dropped frame, only its link tick — sequentially in ascending stream
// order, so the shared cache and link see the same order every run.
// Detect runs each (bundle, serving model) group's frames through the
// batched detector in slices and scores them. Finish records spans,
// books and plans prefetches in stream order again.
//
// The decide blocks and the detect slices fan out over the worker
// budget: each item reads and writes only its own frames' rows, results
// and stream buffers, so the worker count changes no result. Per frame
// the arithmetic is bit-identical to Runtime.ProcessFrame: the dense
// kernel computes each output on its own, in ascending k, however the
// rows are grouped, and the stage methods are shared.
func (m *MultiRuntime) processChunk(tick int, ready, chunk []int, streams [][]*synth.Frame) error {
	bs := m.bstate

	// Decide. Re-plans swap bundles between ticks, never inside one, so
	// the partition is stable for the whole chunk.
	for _, g := range bs.order {
		g.posns = g.posns[:0]
	}
	bs.order, bs.blocks = bs.order[:0], bs.blocks[:0]
	for _, j := range chunk {
		if bs.rung[j] >= pressure.ShedDrop {
			continue
		}
		g := bs.groupFor(m.streams[ready[j]].Bundle())
		if len(g.posns) == 0 {
			bs.order = append(bs.order, g)
		}
		bs.rowOf[j] = len(g.posns)
		g.posns = append(g.posns, j)
	}
	need, widest := 0, 0
	for _, g := range bs.order {
		fd, ed, nm := g.dims()
		need += len(g.posns) * (fd + ed + nm)
		widest = max(widest, fd+ed+nm)
	}
	if cap(bs.stage) < need {
		// A chunk's partitions hold at most len(chunk) rows in all.
		bs.stage = make([]float64, len(chunk)*widest)
	}
	stage := bs.stage
	for _, g := range bs.order {
		stage = g.shape(stage)
		rows := len(g.posns)
		for lo := 0; lo < rows; lo += decideBlockRows {
			bs.blocks = append(bs.blocks, decideBlock{g, lo, min(lo+decideBlockRows, rows)})
		}
		m.bmet.dispatches.Inc()
		m.bmet.batchSize.Observe(float64(rows))
		m.bmet.batchedFrames.Add(int64(rows))
	}
	// Each worker the fan-out starts borrows one scratch for the stage
	// and hands it back to the pool for the detect slices.
	enc := m.bundle.Encoder.Weights
	workers := bs.decide[:min(len(bs.decide), len(bs.blocks))]
	for i := range workers {
		workers[i].scratch = enc.AcquireBatchScratch()
	}
	bs.pool.run(len(bs.blocks), bs.decideFn)
	for i := range workers {
		enc.ReleaseBatchScratch(workers[i].scratch)
		workers[i].scratch = nil
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

	// Detect and score: each (bundle, serving model) group's frames are
	// cut into slices of at most detectSliceFrames, and the workers pull
	// the slices. Each stream belongs to exactly one slice, so the
	// slices write disjoint results.
	bs.work = bs.work[:0]
	for _, g := range bs.order {
		for u := range g.members {
			g.members[u] = g.members[u][:0]
		}
		for _, j := range g.posns {
			if !bs.done[j] {
				u := bs.res[j].Used
				g.members[u] = append(g.members[u], j)
			}
		}
		for u, posns := range g.members {
			for off := 0; off < len(posns); off += detectSliceFrames {
				bs.addSlice(g, u, posns[off:min(off+detectSliceFrames, len(posns))])
			}
		}
	}
	bs.pool.run(len(bs.work), bs.detectFn)

	// Finish: spans and bookkeeping in stream order. Every rung at or
	// above ShedPrefetch suppresses background prefetch planning.
	for _, j := range chunk {
		i := ready[j]
		res := &bs.res[j]
		if !bs.done[j] {
			rt := m.streams[i]
			rt.finishDetect(bs.seqs[j], bs.durs[j], res)
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

// addSlice appends a detect slice over posns, reusing the slot's
// buffers from earlier ticks.
func (bs *batchState) addSlice(g *bundleBatch, u int, posns []int) {
	if len(bs.work) < cap(bs.work) {
		bs.work = bs.work[:len(bs.work)+1]
	} else {
		bs.work = append(bs.work, detectSlice{})
	}
	s := &bs.work[len(bs.work)-1]
	s.g, s.u, s.posns = g, u, posns
	if s.scores == nil {
		s.scores = make([]stats.PRF1, detectSliceFrames)
	}
}

// decideBlock runs decide block k on worker w: its frames' features
// into the partition's feats rows, the encoder and the head with
// softmax over the block's rows into its embs and scores rows, and the
// stream-local half of MSS on each row. Worker w's scratch holds the
// intermediate activations.
func (m *MultiRuntime) decideBlock(w, k int) {
	bs := m.bstate
	blk := bs.blocks[k]
	g, dw := blk.g, &bs.decide[w]
	for r := blk.lo; r < blk.hi; r++ {
		j := g.posns[r]
		synth.FrameFeatureInto(g.feats.Row(r), bs.frames[bs.ready[j]][bs.tick])
	}
	feats := rowBlock(&dw.feats, &g.feats, blk.lo, blk.hi)
	embs := g.bundle.Encoder.EmbedBatchInto(rowBlock(&dw.embs, &g.embs, blk.lo, blk.hi), feats, dw.scratch)
	g.bundle.Decision.ScoresBatchInto(rowBlock(&dw.scores, &g.scores, blk.lo, blk.hi), embs, dw.scratch)
	for r := blk.lo; r < blk.hi; r++ {
		j := g.posns[r]
		rt := m.streams[bs.ready[j]]
		rt.adoptDecision(g.embs.Row(r), g.scores.Row(r))
		rt.rankDecision(&bs.res[j])
	}
}

// rowBlock points view at rows [lo, hi) of m and returns it.
func rowBlock(view, m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	view.Rows, view.Cols, view.Data = hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]
	return view
}

// detectSlice runs detect slice k: one batched detector pass over its
// frames, reusing the features the decide stage computed, with each
// frame scored against ground truth into its result.
func (m *MultiRuntime) detectSlice(_, k int) {
	bs := m.bstate
	s := &bs.work[k]
	s.frames, s.feats = s.frames[:0], s.feats[:0]
	for _, j := range s.posns {
		s.frames = append(s.frames, bs.frames[bs.ready[j]][bs.tick])
		s.feats = append(s.feats, s.g.feats.Row(bs.rowOf[j]))
	}
	scores := s.g.bundle.Detectors[s.u].ScoreBatch(s.scores[:len(s.posns)], s.frames, s.feats)
	for n, j := range s.posns {
		bs.res[j].Metrics = scores[n]
	}
}

// fanOut is the tick's worker pool. run(n, fn) calls fn(w, k) for
// every k in [0, n) on min(workers, n) goroutines — the caller's,
// worker 0, among them — that pull indices from a shared counter, and
// returns once every call has. w is the calling worker's slot in
// [0, min(workers, n)), so an item may use that worker's scratch: no
// two calls with the same w overlap. With one worker or one item no goroutine starts and the
// caller runs every item. The per-item functions are built once and
// helpers start from a prebuilt method value, so a run allocates
// nothing.
type fanOut struct {
	workers int
	n       int
	fn      func(w, k int)
	next    atomic.Int64
	slot    atomic.Int64 // the last worker slot handed to a helper
	wg      sync.WaitGroup
	helpFn  func()
}

func newFanOut(workers int) *fanOut {
	p := &fanOut{workers: workers}
	p.helpFn = p.help
	return p
}

func (p *fanOut) run(n int, fn func(w, k int)) {
	p.n, p.fn = n, fn
	p.next.Store(0)
	p.slot.Store(0)
	for range min(p.workers, n) - 1 {
		p.wg.Add(1)
		go p.helpFn()
	}
	p.drain(0)
	p.wg.Wait()
}

// help is a helper goroutine's body: it takes the next worker slot.
func (p *fanOut) help() {
	p.drain(int(p.slot.Add(1)))
	p.wg.Done()
}

// drain runs items on worker w until none is left.
func (p *fanOut) drain(w int) {
	for {
		k := int(p.next.Add(1)) - 1
		if k >= p.n {
			return
		}
		p.fn(w, k)
	}
}
