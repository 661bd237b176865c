package core

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anole/internal/detect"
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
// positions currently staged on it and their features, embeddings and
// scores. Streams on a heterogeneous fleet may run different planner
// variants, and each variant is its own Bundle — so batching groups by
// bundle, and a homogeneous fleet collapses to exactly one group.
type bundleBatch struct {
	bundle *Bundle

	// posns lists the tick positions staged on this bundle in the
	// current chunk; feats (the frame features, computed once per frame
	// and read again by detection), embs and scores are row-aligned
	// with posns, carved from the batch state's stage.
	posns               []int
	feats, embs, scores tensor.Matrix
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

// detectSliceFrames is how many consecutively resolved frames one
// detect work item carries. The detector runs each frame's cells as
// one batch whatever the slice holds, so the size sets only the
// fan-out granularity: how many work items a chunk's detection is cut
// into for the workers to pull, and how often the ordered lane hands
// resolved frames on.
const detectSliceFrames = 8

// worker is one worker's working set: the scratch behind the encoder's
// and head's intermediate activations (borrowed from the shared pool
// with the worker's first decide block of a chunk and handed back once
// no block is left, so the detector's passes reuse it), the headers of
// a block's row views of its partition's feats, embs and scores, the
// frames and feature rows of one decide block's descriptor call or of
// one ScoreBatch call, and that call's scores.
type worker struct {
	scratch             *nn.BatchScratch
	feats, embs, scores tensor.Matrix
	frames              []*synth.Frame
	rows                []tensor.Vector
	metrics             []stats.PRF1
}

// batchState is the reusable working set of the tick pipeline: one
// bundleBatch per distinct stream bundle (lazily created; planner
// variants keep theirs across re-plans, swapped-out bundles release
// theirs on the swap), the per-position frame bookkeeping of the
// current tick, and the chunk's fan-out. It belongs to the
// ProcessStreams goroutine; the helpers it starts for a chunk run
// disjoint decide blocks and detect slices of it.
type batchState struct {
	groups map[*Bundle]*bundleBatch
	order  []*bundleBatch // groups in first-staged order this chunk

	// Per tick position j (index into the tick's ready list): the
	// in-flight frame result, the frame's shed rung, whether the result
	// is already terminal (disposed, shed or failed — later stages skip
	// it), its frame-feature row in its bundle's partition, its decide
	// block and detect slice, the tracer sequence, and the simulated
	// detect duration.
	res     []FrameResult
	rung    []pressure.Rung
	done    []bool
	feat    []tensor.Vector
	blockOf []int
	sliceOf []int
	seqs    []int64
	durs    []time.Duration

	// live lists the positions admitted into the pipeline this tick;
	// stage backs every partition's feats, embs and scores in the
	// current chunk; blocks are the chunk's decide blocks, in the order
	// the ordered lane reaches their first rows.
	live   []int
	stage  []float64
	blocks []decideBlock

	// The chunk's work queue. Workers pull block k through nextBlock
	// and set blockDone[k] once it has run. The lane writes the
	// positions to detect into detectPos in resolve order; slice d is
	// detectPos[d*detectSliceFrames : sliceEnd[d]], fully written before
	// published passes d, pulled through taken, and sets sliceDone[d]
	// once scored. closed is set once no slice will be published.
	detectPos []int
	sliceEnd  []int
	blockDone []atomic.Bool
	sliceDone []atomic.Bool
	nextBlock atomic.Int64
	published atomic.Int64
	taken     atomic.Int64
	closed    atomic.Bool

	// The current tick's inputs, as processTick received them, for the
	// workers.
	tick   int
	ready  []int
	frames [][]*synth.Frame

	// workers[w] is worker w's working set (the lane is worker 0); slot
	// hands helpers the other slots; helpFn is the helper body, built
	// once so starting a helper allocates nothing.
	workers []worker
	slot    atomic.Int64
	wg      sync.WaitGroup
	helpFn  func()
}

func newBatchState(m *MultiRuntime, workers int) *batchState {
	bs := &batchState{
		groups:  make(map[*Bundle]*bundleBatch),
		blocks:  make([]decideBlock, 0, (m.maxBatch+decideBlockRows-1)/decideBlockRows),
		workers: make([]worker, workers),
	}
	for w := range bs.workers {
		bs.workers[w] = worker{
			frames:  make([]*synth.Frame, 0, max(decideBlockRows, detectSliceFrames)),
			rows:    make([]tensor.Vector, 0, max(decideBlockRows, detectSliceFrames)),
			metrics: make([]stats.PRF1, detectSliceFrames),
		}
	}
	bs.helpFn = m.help
	return bs
}

// ensure sizes the per-position bookkeeping and the work queue for an
// n-frame tick; a chunk never holds more frames, decide blocks or
// detect slices than its tick has frames.
func (bs *batchState) ensure(n int) {
	if cap(bs.res) < n {
		bs.res = make([]FrameResult, n)
		bs.rung = make([]pressure.Rung, n)
		bs.done = make([]bool, n)
		bs.feat = make([]tensor.Vector, n)
		bs.blockOf = make([]int, n)
		bs.sliceOf = make([]int, n)
		bs.seqs = make([]int64, n)
		bs.durs = make([]time.Duration, n)
		bs.detectPos = make([]int, n)
		bs.sliceEnd = make([]int, n)
		bs.blockDone = make([]atomic.Bool, n)
		bs.sliceDone = make([]atomic.Bool, n)
	}
	bs.res = bs.res[:n]
	bs.rung = bs.rung[:n]
	bs.done = bs.done[:n]
	bs.feat = bs.feat[:n]
	bs.blockOf = bs.blockOf[:n]
	bs.sliceOf = bs.sliceOf[:n]
	bs.seqs = bs.seqs[:n]
	bs.durs = bs.durs[:n]
}

// groupFor returns the bundleBatch for b, creating it on first use.
func (bs *batchState) groupFor(b *Bundle) *bundleBatch {
	g, ok := bs.groups[b]
	if !ok {
		g = &bundleBatch{bundle: b}
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
		if err := m.processChunk(chunk); err != nil {
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
// admitted tick positions, as one fan-out.
//
// Decide partitions the frames to serve by the bundle each stream
// currently runs (one partition on a homogeneous fleet, one per planner
// variant in use on a mixed fleet) and cuts each partition into blocks
// of at most decideBlockRows rows. One block computes its frames'
// features, runs the scene encoder and decision head over its rows as
// one GEMM per layer, and ranks each row. Resolve runs every frame's
// hysteresis, cache resolution and device accounting — or, for a
// dropped frame, only its link tick — in ascending stream order, so the
// shared cache and link see the same order every run. Detect scores
// each frame on its serving detector, in slices of detectSliceFrames
// consecutively resolved frames. Finish records spans, books and plans
// prefetches in stream order again.
//
// The chunk starts its helpers once. They pull decide blocks while any
// is left, then detect slices as the lane publishes them. The
// ProcessStreams goroutine, worker 0, runs the ordered lane: it
// resolves each frame as soon as its decide block is done, publishes
// every detectSliceFrames resolved frames as a slice, and once every
// frame is resolved finishes each frame as soon as its slice is done.
// Whenever the next frame is not ready the lane runs an available block
// or slice itself, or yields the processor. So the shared cache, link,
// device clocks and tracer see every resolve of the chunk in stream
// order and then every finish in stream order, whatever the worker
// count, and each block or slice reads and writes only its own frames'
// rows, results and stream buffers. At Workers 1 the lane runs every
// block and slice itself. Per frame the arithmetic is bit-identical to
// Runtime.ProcessFrame: the dense kernel computes each output on its
// own, in ascending k, however the rows are grouped, and the stage
// methods are shared.
func (m *MultiRuntime) processChunk(chunk []int) error {
	bs := m.bstate
	rows := m.stageChunk(chunk)
	bs.nextBlock.Store(0)
	bs.published.Store(0)
	bs.taken.Store(0)
	bs.closed.Store(false)
	bs.slot.Store(0)
	for k := range bs.blocks {
		bs.blockDone[k].Store(false)
	}
	nslices := (rows + detectSliceFrames - 1) / detectSliceFrames
	for range min(len(bs.workers), max(len(bs.blocks), nslices)) - 1 {
		bs.wg.Add(1)
		go bs.helpFn()
	}
	err := m.lane(chunk)
	// A failed resolve leaves the chunk unfinished: no further slice is
	// published, and the helpers leave once they have taken the rest.
	bs.closed.Store(true)
	bs.wg.Wait()
	m.releaseScratch(&bs.workers[0])
	return err
}

// stageChunk partitions the chunk's frames to serve by bundle, carves
// each partition's rows from the stage, cuts the partitions into decide
// blocks and returns how many rows it staged. Re-plans swap bundles
// between ticks, never inside one, so the partition is stable for the
// whole chunk.
func (m *MultiRuntime) stageChunk(chunk []int) int {
	bs := m.bstate
	for _, g := range bs.order {
		g.posns = g.posns[:0]
	}
	bs.order, bs.blocks = bs.order[:0], bs.blocks[:0]
	rows := 0
	for _, j := range chunk {
		if bs.rung[j] >= pressure.ShedDrop {
			continue
		}
		g := bs.groupFor(m.streams[bs.ready[j]].Bundle())
		if len(g.posns) == 0 {
			bs.order = append(bs.order, g)
		}
		g.posns = append(g.posns, j)
		rows++
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
		n := len(g.posns)
		for lo := 0; lo < n; lo += decideBlockRows {
			bs.blocks = append(bs.blocks, decideBlock{g, lo, min(lo+decideBlockRows, n)})
		}
		m.bmet.dispatches.Inc()
		m.bmet.batchSize.Observe(float64(n))
		m.bmet.batchedFrames.Add(int64(n))
	}
	// Pull the blocks in the order the lane reaches their first rows:
	// a partition's rows ascend with the tick position.
	slices.SortFunc(bs.blocks, func(a, b decideBlock) int { return a.g.posns[a.lo] - b.g.posns[b.lo] })
	for k, blk := range bs.blocks {
		for r := blk.lo; r < blk.hi; r++ {
			j := blk.g.posns[r]
			bs.feat[j], bs.blockOf[j] = blk.g.feats.Row(r), k
		}
	}
	return rows
}

// lane is the chunk's ordered work on worker 0: every resolve in chunk
// order, each as soon as the frame's decide block is done, publishing
// the frames to detect in slices; then every finish in chunk order,
// each as soon as the frame's slice is done. It returns the first
// resolve error when the pressure machinery is off.
func (m *MultiRuntime) lane(chunk []int) error {
	bs := m.bstate
	n := 0 // frames queued for detection
	for _, j := range chunk {
		if bs.rung[j] < pressure.ShedDrop {
			for !bs.blockDone[bs.blockOf[j]].Load() {
				m.step(0)
			}
		}
		if err := m.resolve(j); err != nil {
			return err
		}
		if bs.done[j] {
			continue
		}
		bs.detectPos[n], bs.sliceOf[j] = j, n/detectSliceFrames
		if n++; n%detectSliceFrames == 0 {
			bs.publish(n)
		}
	}
	if n%detectSliceFrames != 0 {
		bs.publish(n)
	}
	bs.closed.Store(true)
	m.releaseScratch(&bs.workers[0])

	// Finish: spans and bookkeeping in stream order. Every rung at or
	// above ShedPrefetch suppresses background prefetch planning.
	for _, j := range chunk {
		res := &bs.res[j]
		if !bs.done[j] {
			for !bs.sliceDone[bs.sliceOf[j]].Load() {
				m.step(0)
			}
			rt := m.streams[bs.ready[j]]
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

// resolve runs position j's clocks, hysteresis, cache and link — or,
// for a dropped frame, only its link tick — and its device accounting.
func (m *MultiRuntime) resolve(j int) error {
	bs := m.bstate
	i := bs.ready[j]
	rt := m.streams[i]
	res := &bs.res[j]
	if bs.rung[j] >= pressure.ShedDrop {
		rt.shedFrame()
		*res, bs.done[j] = disposedResult(VerdictShed), true
		return nil
	}
	f := bs.frames[i][bs.tick]
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
			return nil
		}
	}
	bs.durs[j] = rt.detectAccount(f, res)
	bs.seqs[j] = seq
	return nil
}

// publish hands the frames queued for detection up to end to the
// workers as the next slice. Its positions are written before the
// published count passes it.
func (bs *batchState) publish(end int) {
	d := bs.published.Load()
	bs.sliceEnd[d] = end
	bs.sliceDone[d].Store(false)
	bs.published.Store(d + 1)
}

// help is a helper's body for one chunk: on the next worker slot it
// runs work items until the lane has published every slice and every
// slice is taken.
func (m *MultiRuntime) help() {
	bs := m.bstate
	w := int(bs.slot.Add(1))
	for !bs.closed.Load() || bs.taken.Load() < bs.published.Load() {
		m.step(w)
	}
	bs.wg.Done()
}

// step runs one work item on worker w — the next decide block while any
// is left, else the next published detect slice — or, when none is
// available, yields the processor.
func (m *MultiRuntime) step(w int) {
	bs := m.bstate
	wk := &bs.workers[w]
	if nb := int64(len(bs.blocks)); bs.nextBlock.Load() < nb {
		if k := bs.nextBlock.Add(1) - 1; k < nb {
			if wk.scratch == nil {
				wk.scratch = m.bundle.Encoder.Weights.AcquireBatchScratch()
			}
			m.decideBlock(wk, &bs.blocks[k])
			bs.blockDone[k].Store(true)
			return
		}
	}
	// No block is left: the detector's passes may reuse the scratch.
	m.releaseScratch(wk)
	if d := bs.taken.Load(); d < bs.published.Load() && bs.taken.CompareAndSwap(d, d+1) {
		m.detectSlice(wk, int(d))
		bs.sliceDone[d].Store(true)
		return
	}
	goruntime.Gosched()
}

// releaseScratch hands wk's decide scratch, if it holds one, back to
// the shared pool.
func (m *MultiRuntime) releaseScratch(wk *worker) {
	if wk.scratch != nil {
		m.bundle.Encoder.Weights.ReleaseBatchScratch(wk.scratch)
		wk.scratch = nil
	}
}

// decideBlock runs decide block blk on worker wk: its frames' features
// into the partition's feats rows (all of the block's frames through
// one kernel call, so their add chains interleave), the encoder and the
// head with softmax over the block's rows into its embs and scores
// rows, and the stream-local half of MSS on each row, its novelty on
// the nearest-centroid kernel. The worker's scratch holds the
// intermediate activations.
func (m *MultiRuntime) decideBlock(wk *worker, blk *decideBlock) {
	bs := m.bstate
	g := blk.g
	frames, rows := wk.frames[:0], wk.rows[:0]
	for r := blk.lo; r < blk.hi; r++ {
		j := g.posns[r]
		frames = append(frames, bs.frames[bs.ready[j]][bs.tick])
		rows = append(rows, bs.feat[j])
	}
	synth.FrameFeaturesInto(rows, frames)
	feats := rowBlock(&wk.feats, &g.feats, blk.lo, blk.hi)
	embs := g.bundle.Encoder.EmbedBatchInto(rowBlock(&wk.embs, &g.embs, blk.lo, blk.hi), feats, wk.scratch)
	g.bundle.Decision.ScoresBatchInto(rowBlock(&wk.scores, &g.scores, blk.lo, blk.hi), embs, wk.scratch)
	for r := blk.lo; r < blk.hi; r++ {
		j := g.posns[r]
		rt := m.streams[bs.ready[j]]
		emb := g.embs.Row(r)
		rt.adoptDecision(emb, g.scores.Row(r))
		rt.rankDecision(&bs.res[j], g.bundle.noveltyOf(emb))
	}
}

// rowBlock points view at rows [lo, hi) of m and returns it.
func rowBlock(view, m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	view.Rows, view.Cols, view.Data = hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]
	return view
}

// detectSlice runs detect slice d on worker wk: each frame on its
// serving detector, one batched pass per run of consecutive frames that
// share a detector, reusing the features the decide stage computed,
// with each frame scored against ground truth into its result.
func (m *MultiRuntime) detectSlice(wk *worker, d int) {
	bs := m.bstate
	posns := bs.detectPos[d*detectSliceFrames : bs.sliceEnd[d]]
	for len(posns) > 0 {
		det := m.servingDetector(posns[0])
		n := 1
		for n < len(posns) && m.servingDetector(posns[n]) == det {
			n++
		}
		frames, rows := wk.frames[:0], wk.rows[:0]
		for _, j := range posns[:n] {
			frames = append(frames, bs.frames[bs.ready[j]][bs.tick])
			rows = append(rows, bs.feat[j])
		}
		scores := det.ScoreBatch(wk.metrics[:n], frames, rows)
		for k, j := range posns[:n] {
			bs.res[j].Metrics = scores[k]
		}
		posns = posns[n:]
	}
}

// servingDetector returns the detector serving resolved position j.
func (m *MultiRuntime) servingDetector(j int) *detect.Detector {
	bs := m.bstate
	return m.streams[bs.ready[j]].Bundle().Detectors[bs.res[j].Used]
}
