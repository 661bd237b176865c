// Command anole-run loads a profiled bundle and streams synthetic
// driving traces through the Online Model Inference loop on simulated
// devices, printing per-stream accuracy, power and memory and the run's
// aggregate latency, cache and energy statistics.
//
// Usage:
//
//	anole-run -bundle anole.bundle [-seed N] [-clips N] [-frames N]
//	          [-device nano|tx2|laptop|cpu-fast|cpu-slow] [-cache N] [-streams N]
//	          [-fleet SPEC] [-plan]
//	          [-prefetch] [-prefetch-budget BYTES] [-link-stability P]
//	          [-chaos] [-outage-rate P] [-corrupt-rate P]
//	          [-breaker-threshold N] [-breaker-cooldown FRAMES]
//	          [-adapt] [-drift-window FRAMES] [-canary-frames FRAMES]
//	          [-thermal] [-deadline DUR]
//	          [-checkpoint FILE] [-checkpoint-every TICKS] [-restore FILE]
//	          [-metrics-addr HOST:PORT] [-json FILE|-]
//
// Every run serves its streams through core.MultiRuntime: -streams N
// (default 1, the paper's single camera) multiplexes N independent frame
// streams over one shared thread-safe model cache, printing per-stream
// and aggregate statistics. -trace P writes one JSONL file per stream,
// named P.stream0 … P.stream<N-1>.
//
// With -fleet "nano:40,tx2:40,laptop:20" (overrides -device) the
// streams run on a heterogeneous device fleet: the spec's weights are
// scaled to the stream count and each stream is deterministically
// assigned a registry profile (nano, tx2, laptop, cpu-fast, cpu-slow;
// "name@mode" pins a power mode). Per-stream lines gain the device
// class, the -json report gains a "fleet" block with per-class
// aggregates, and with -slo the per-class p99 percentiles export as
// anole_fleet_<class>_* gauges. With -plan (requires -fleet,
// incompatible with -adapt) each stream additionally runs the model
// variant — full precision or a quantized copy (q8/q6/q4) — that is the
// most accurate its device can serve within the memory ceiling and the
// 33ms latency budget; pressure-level transitions re-plan.
//
// With -prefetch the model cache sits behind a simulated device↔cloud
// link (netsim, self-transition stability -link-stability): a desired
// model that is not resident stalls its frame on an on-demand fetch,
// and a scene-transition Markov model prefetches the likeliest next
// models in the background, within -prefetch-budget bytes per plan.
//
// With -chaos (implies -prefetch) a deterministic seeded fault injector
// wraps the link: outage bursts (-outage-rate) and corrupted transfers
// (-corrupt-rate). The demand path fails fast during outages, a circuit
// breaker (-breaker-threshold failures to open, -breaker-cooldown frames
// to half-open) pauses background prefetching while the path is bad, and
// the runtime serves stale resident models in degraded mode — every
// frame is still served; degradedFrames / fallbackServed / breakerOpens
// in the -json report count the damage.
//
// With -thermal every device simulator runs the default thermal
// throttling model: sustained load heats the device and derates compute.
// With -deadline each frame gets a latency target and the fleet
// survives overload by shedding: a deadline controller escalates a shed
// ladder (skip prefetch → serve the smallest resident model → drop the
// frame) and a pressure monitor folds heat, cache residency and backlog
// into Nominal/Elevated/Critical reactions. Every offered frame gets a
// terminal verdict; the -json report gains a "pressure" block and
// anole_pressure_* metrics count the damage.
//
// With -checkpoint the run writes a versioned, CRC-checked warm-state
// checkpoint (Markov transition counts, cache residency manifest, drift
// windows, fleet generation) on completion — and every -checkpoint-every
// ticks while running. With -restore the run warm-starts from such a
// file; a corrupt, truncated or version-skewed checkpoint falls back to
// a cold start (never a partial restore).
//
// With -adapt (requires -streams >= 2) the run closes the paper's
// continual-adaptation loop in-process: stream 0's trace is replaced by
// a scene absent from the bundle's training label space, per-stream
// drift detectors (window -drift-window) report the emerging scene to
// an in-process adaptation controller, the controller retrains a new
// specialist and publishes it through a versioned repository, and the
// new generation canaries on stream 0 for -canary-frames frames before
// fleet-wide promotion or rollback. The -json report gains an "adapt"
// block (drift events, reports, canary verdicts, fleet generation) and
// the anole_adapt_* counters appear in metrics.
//
// Every run drives a telemetry registry and a frame-pipeline span
// tracer: -json includes the full anole_* counter set (flattened) plus
// the retained per-frame stage spans, and -metrics-addr serves live
// Prometheus-text /metrics, JSON /debug/spans and /debug/pprof on the
// given address (use 127.0.0.1:0 for an ephemeral port) while the run
// executes. With -prefetch the span clock is the simulated link clock,
// so span timestamps are deterministic for a fixed seed.
//
// -json writes the aggregate statistics — cache hit/miss/eviction and
// prefetch counters included — as one JSON object to a file, or to
// stdout with "-".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"time"

	"anole/internal/adapt"
	"anole/internal/breaker"
	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/device"
	"anole/internal/faults"
	"anole/internal/flight"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/pressure"
	"anole/internal/repo"
	"anole/internal/sampling"
	"anole/internal/slo"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/trace"
	"anole/internal/xrand"
)

// testHookMetricsSettled, when set by a test, is invoked after the run's
// counters have settled (scheduler drained, report written) with the
// debug listener's address, while the listener is still serving — the
// window in which live /metrics must agree with the -json report.
var testHookMetricsSettled func(addr string)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anole-run:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("anole-run", flag.ContinueOnError)
	var (
		bundlePath  = fs.String("bundle", "anole.bundle", "bundle file produced by anole-profile")
		seed        = fs.Uint64("seed", 1, "seed of the world the bundle was profiled on")
		clips       = fs.Int("clips", 3, "number of trace clips to stream")
		frames      = fs.Int("frames", 150, "frames per trace clip")
		devName     = fs.String("device", "tx2", "device profile: "+strings.Join(device.RegistryNames(), ", "))
		cache       = fs.Int("cache", 5, "model cache capacity in compressed-model slots")
		streams     = fs.Int("streams", 1, "independent frame streams sharing the model cache")
		fleetSpec   = fs.String("fleet", "", "heterogeneous device fleet spec, e.g. \"nano:40,tx2:40,laptop:20\" (overrides -device)")
		planOn      = fs.Bool("plan", false, "per-device planning: each stream runs the most accurate model variant (fp32/q8/q6/q4) its device can serve (requires -fleet, incompatible with -adapt)")
		tracePath   = fs.String("trace", "", "write per-stream JSONL decision traces to this path plus \".stream<k>\"")
		prefetchOn  = fs.Bool("prefetch", false, "serve model bytes over a simulated device-cloud link with transition-aware prefetching")
		pfBudget    = fs.Int64("prefetch-budget", 0, "max bytes in flight per prefetch plan (0 = unlimited)")
		stability   = fs.Float64("link-stability", 0.7, "link-state self-transition probability in [0,1] (with -prefetch)")
		chaosOn     = fs.Bool("chaos", false, "inject deterministic seeded faults on the device-cloud link (implies -prefetch)")
		outageRate  = fs.Float64("outage-rate", 0.3, "per-frame probability of starting a link outage burst (with -chaos)")
		crptRate    = fs.Float64("corrupt-rate", 0.05, "per-transfer probability of payload corruption (with -chaos)")
		brkThresh   = fs.Int("breaker-threshold", 5, "consecutive fetch failures before the circuit breaker opens (with -chaos)")
		brkCool     = fs.Int("breaker-cooldown", 20, "frames an open breaker waits before a half-open probe (with -chaos)")
		adaptOn     = fs.Bool("adapt", false, "close the continual-adaptation loop: inject an unseen scene on stream 0, detect drift, retrain in-process, canary and roll out (requires -streams >= 2)")
		thermalOn   = fs.Bool("thermal", false, "enable the default thermal throttling model on every device simulator")
		deadline    = fs.Duration("deadline", 0, "per-frame simulated latency target enabling deadline-aware shedding")
		ckptPath    = fs.String("checkpoint", "", "write a warm-state checkpoint to this file on completion")
		ckptEvery   = fs.Int("checkpoint-every", 0, "also checkpoint every N frame ticks during the run (with -checkpoint, no -adapt)")
		restorePath = fs.String("restore", "", "warm-start from this checkpoint file; corrupt or unreadable falls back to cold start")
		driftWin    = fs.Int("drift-window", 30, "drift-detector window in frames (with -adapt)")
		canaryFr    = fs.Int("canary-frames", 60, "canary-stream frames before a rollout verdict (with -adapt)")
		minF1Ratio  = fs.Float64("min-f1-ratio", 0.5, "canary-to-incumbent F1 ratio below which a canary rolls back (with -adapt)")
		flightOn    = fs.Bool("flight", false, "run the anomaly flight recorder: bounded event rings frozen and dumped when a rollback, Critical pressure, quarantine or checkpoint reject lands")
		flightDump  = fs.String("flight-dump", "", "write the flight-recorder dump artifact to this file the moment an anomaly trips (with -flight)")
		sloOn       = fs.Bool("slo", false, "evaluate fleet SLOs (frame p99 latency, served/degraded fractions, swap staleness) with multi-window burn rates; adds the anole_slo_* series and an \"slo\" block to -json")
		sloLatency  = fs.Duration("slo-latency-target", 50*time.Millisecond, "frame p99 latency objective (with -slo)")
		sloStale    = fs.Duration("slo-staleness-target", 10*time.Second, "publish-to-swap staleness objective (with -slo)")
		metricsAddr = fs.String("metrics-addr", "", "serve live /metrics, /debug/spans, /debug/flight and /debug/pprof on this address during the run (e.g. 127.0.0.1:0)")
		jsonPath    = fs.String("json", "", "write aggregate stats JSON to this file (\"-\" for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streams < 1 {
		return fmt.Errorf("-streams must be >= 1, got %d", *streams)
	}
	if *adaptOn && *streams < 2 {
		return fmt.Errorf("-adapt needs a canary stream and an incumbent reference: -streams must be >= 2, got %d", *streams)
	}
	if *chaosOn {
		*prefetchOn = true
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint")
	}
	if *ckptEvery > 0 && *adaptOn {
		return fmt.Errorf("-checkpoint-every cannot chunk an -adapt run (checkpoint is still written on completion)")
	}
	if *flightDump != "" && !*flightOn {
		return fmt.Errorf("-flight-dump needs -flight")
	}
	if *planOn && *fleetSpec == "" {
		return fmt.Errorf("-plan selects variants per fleet device: it needs -fleet")
	}
	if *planOn && *adaptOn {
		return fmt.Errorf("-plan and -adapt both own bundle assignment; pick one")
	}
	profile, ok := device.LookupProfile(*devName)
	if !ok {
		return fmt.Errorf("unknown device %q (want one of %s)", *devName, strings.Join(device.RegistryNames(), ", "))
	}

	bundle, err := repo.LoadFile(*bundlePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bundle: %d compressed models, feat dim %d\n", bundle.NumModels(), bundle.FeatDim)

	var fleet device.Fleet
	if *fleetSpec != "" {
		if fleet, err = device.BuildFleet(*fleetSpec, *streams, *seed); err != nil {
			return err
		}
	}
	reg := telemetry.NewRegistry()
	// rec is assigned below, after the link (whose clock it shares) is
	// built; the breaker transition hook closes over the variable and
	// nil-safe Record ignores transitions before assignment.
	var rec *flight.Recorder
	var pfCfg *prefetch.Config
	var lf *prefetch.LinkFetcher
	if *prefetchOn {
		var chaos *chaosConfig
		if *chaosOn {
			chaos = &chaosConfig{
				OutageRate:       *outageRate,
				CorruptRate:      *crptRate,
				BreakerThreshold: *brkThresh,
				BreakerCooldown:  *brkCool,
				OnBreaker: func(from, to breaker.State) {
					rec.Record(flight.Event{
						Stream: flight.GlobalStream,
						Kind:   flight.KindBreaker,
						Detail: to.String(),
						Value:  float64(to),
					})
				},
			}
		}
		pfCfg, lf, err = linkPrefetchConfig(bundle, *stability, *pfBudget, *seed, chaos, reg)
		if err != nil {
			return err
		}
	}
	// Span clock: the simulated link clock when a link exists (span
	// timestamps then deterministic for a fixed seed), wall time
	// otherwise.
	var spanClock func() time.Duration
	if lf != nil {
		spanClock = lf.Now
	}
	spans := telemetry.NewTracer(0, spanClock)

	if *flightOn {
		fcfg := flight.Config{
			Now:    spanClock,
			Spans:  spans,
			Gather: reg,
			Info: map[string]string{
				"seed":    fmt.Sprint(*seed),
				"streams": fmt.Sprint(*streams),
				"device":  *devName,
				"fleet":   *fleetSpec,
				"chaos":   fmt.Sprint(*chaosOn),
				"adapt":   fmt.Sprint(*adaptOn),
			},
			Metrics: reg,
		}
		if *flightDump != "" {
			path := *flightDump
			fcfg.OnDump = func(d *flight.Dump) {
				f, err := os.Create(path)
				if err != nil {
					return
				}
				defer f.Close()
				_ = flight.WriteDump(f, d)
			}
		}
		rec = flight.NewRecorder(fcfg)
	}
	var eng *slo.Engine
	if *sloOn {
		eng = slo.NewEngine(slo.Config{
			LatencyTarget:   *sloLatency,
			StalenessTarget: *sloStale,
			Now:             spanClock,
			Metrics:         reg,
		})
	}

	var metricsURL string
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MetricsHandler(reg))
		mux.Handle("/debug/spans", telemetry.SpansHandler(spans))
		mux.Handle("/debug/flight", flight.Handler(rec))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		metricsURL = ln.Addr().String()
		fmt.Fprintf(w, "debug: serving /metrics, /debug/spans, /debug/pprof on http://%s\n", metricsURL)
	}
	ro := runOptions{
		Profile:         profile,
		Streams:         *streams,
		CacheSlots:      *cache,
		Clips:           *clips,
		Frames:          *frames,
		Seed:            *seed,
		TracePath:       *tracePath,
		JSONPath:        *jsonPath,
		Prefetch:        pfCfg,
		Link:            lf,
		Thermal:         *thermalOn,
		Fleet:           fleet,
		FleetSpec:       *fleetSpec,
		Plan:            *planOn,
		Deadline:        *deadline,
		Checkpoint:      *ckptPath,
		CheckpointEvery: *ckptEvery,
		Restore:         *restorePath,
		Flight:          rec,
		SLO:             eng,
		Metrics:         reg,
		Spans:           spans,
	}
	if *adaptOn {
		ro.Adapt = &adaptOptions{DriftWindow: *driftWin, CanaryFrames: *canaryFr, MinF1Ratio: *minF1Ratio}
	}
	if err := serve(w, bundle, ro); err != nil {
		return err
	}
	if testHookMetricsSettled != nil && metricsURL != "" {
		testHookMetricsSettled(metricsURL)
	}
	return nil
}

// pfBreaker extracts the circuit breaker from a prefetch configuration
// (nil without -chaos).
func pfBreaker(cfg *prefetch.Config) *breaker.Breaker {
	if cfg == nil {
		return nil
	}
	return cfg.Breaker
}

// report is the aggregate-statistics JSON document behind -json.
type report struct {
	Frames            int     `json:"frames"`
	Switches          int     `json:"switches"`
	MeanSceneDuration float64 `json:"meanSceneDuration"`
	F1                float64 `json:"f1"`
	Precision         float64 `json:"precision"`
	Recall            float64 `json:"recall"`
	TotalLatencyMs    float64 `json:"totalLatencyMs"`
	CacheHits         int64   `json:"cacheHits"`
	CacheMisses       int64   `json:"cacheMisses"`
	CacheEvictions    int64   `json:"cacheEvictions"`
	MissRate          float64 `json:"missRate"`
	Prefetches        int64   `json:"prefetches"`
	PrefetchHits      int64   `json:"prefetchHits"`
	PrefetchWasted    int64   `json:"prefetchWasted"`
	ColdMisses        int     `json:"coldMisses"`
	FetchStallMs      float64 `json:"fetchStallMs"`
	// Resilience counters: frames served stale in degraded mode, frames
	// served by any model other than the decided one, circuit-breaker
	// open transitions and half-open probes, and background prefetches
	// cancelled (preempted by demand fetches or shutdown). Frames ==
	// served frames always — nothing drops.
	DegradedFrames        int   `json:"degradedFrames"`
	FallbackServed        int   `json:"fallbackServed"`
	BreakerOpens          int64 `json:"breakerOpens"`
	BreakerHalfOpenProbes int64 `json:"breakerHalfOpenProbes"`
	PrefetchCancelled     int64 `json:"prefetchCancelled"`
	// Scheduler is present only when -prefetch was set.
	Scheduler *prefetch.SchedulerStats `json:"scheduler,omitempty"`
	// Adapt is present only when -adapt was set: the adaptation loop's
	// counters (drift events, reports, canary verdicts, fleet generation).
	Adapt *adapt.LoopStats `json:"adapt,omitempty"`
	// Pressure is present only when the overload machinery ran
	// (-deadline): final level and shed-ladder rung plus the per-verdict
	// frame counts.
	Pressure *core.PressureStats `json:"pressure,omitempty"`
	// SLO is present only when -slo was set: windowed objectives, burn
	// rates, and fleet percentiles as of run end — the same values the
	// anole_slo_* gauges export.
	SLO *slo.Status `json:"slo,omitempty"`
	// Fleet is present only when -fleet was set: per-device-class
	// aggregates (streams, frames, mean latency, energy, planner
	// variants). Per-class p99 percentiles live in SLO.Classes when
	// -slo also ran.
	Fleet []classReport `json:"fleet,omitempty"`
	// Flight is present only when -flight was set: recorder state plus
	// the captured dump's reason. The full dump artifact is written by
	// -flight-dump and served on /debug/flight?dump=1.
	Flight *flightStatus `json:"flight,omitempty"`
	// Metrics is the run's full telemetry counter set, flattened with
	// telemetry.Map (histograms expand to _count/_sum/_p50/_p95/_p99).
	// Live /metrics (-metrics-addr) serves exactly these values once the
	// run settles.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Spans are the retained per-frame pipeline-stage spans, oldest
	// first (the tracer keeps the most recent telemetry.DefaultSpanBuffer).
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// flightStatus is the -json report's flight-recorder block.
type flightStatus struct {
	Frozen     bool   `json:"frozen"`
	Events     int    `json:"events"`
	Dropped    int64  `json:"dropped"`
	DumpReason string `json:"dumpReason,omitempty"`
}

func buildReport(st core.RunStats, sched *prefetch.Scheduler, brk *breaker.Breaker, ast *adapt.LoopStats, press *core.PressureStats, eng *slo.Engine, rec *flight.Recorder, reg *telemetry.Registry, spans *telemetry.Tracer) report {
	rep := report{
		Frames:            st.Frames,
		Switches:          st.Switches,
		MeanSceneDuration: st.MeanSceneDuration(),
		F1:                st.Detection.F1,
		Precision:         st.Detection.Precision,
		Recall:            st.Detection.Recall,
		TotalLatencyMs:    1e3 * st.TotalLatency.Seconds(),
		CacheHits:         st.Cache.Hits,
		CacheMisses:       st.Cache.Misses,
		CacheEvictions:    st.Cache.Evictions,
		MissRate:          st.MissRate,
		Prefetches:        st.Cache.Prefetches,
		PrefetchHits:      st.Cache.PrefetchHits,
		PrefetchWasted:    st.Cache.PrefetchWasted,
		ColdMisses:        st.ColdMisses,
		FetchStallMs:      1e3 * st.FetchStall.Seconds(),
		DegradedFrames:    st.DegradedFrames,
		FallbackServed:    st.FallbackServed,
	}
	if sched != nil {
		ps := sched.Stats()
		rep.Scheduler = &ps
		rep.BreakerOpens = ps.BreakerOpens
		rep.PrefetchCancelled = ps.Cancelled
	}
	if brk != nil {
		rep.BreakerHalfOpenProbes = brk.HalfOpens()
	}
	rep.Adapt = ast
	rep.Pressure = press
	if eng != nil {
		// Status refreshes the anole_slo_* gauges, so it must run before
		// the registry snapshot below for scrape == report to hold.
		sst := eng.Status()
		rep.SLO = &sst
	}
	if rec != nil {
		fst := flightStatus{
			Frozen:  rec.Frozen(),
			Events:  len(rec.Snapshot()),
			Dropped: rec.Dropped(),
		}
		if d := rec.LastDump(); d != nil {
			fst.DumpReason = d.Reason
		}
		rep.Flight = &fst
	}
	if reg != nil {
		rep.Metrics = telemetry.Map(reg)
	}
	if spans != nil {
		rep.Spans = spans.Snapshot()
	}
	return rep
}

// writeReport emits the JSON document to path ("-" = the run's output
// writer); an empty path writes nothing.
func writeReport(w io.Writer, path string, rep report) error {
	if path == "" {
		return nil
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = w.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// printPrefetch summarizes the link and prefetch behavior of a run (a
// no-op without -prefetch).
func printPrefetch(w io.Writer, st core.RunStats, sched *prefetch.Scheduler) {
	if sched == nil {
		return
	}
	ps := sched.Stats()
	fmt.Fprintf(w, "link: cold misses %d  demand stall %.1f ms total (%.1f ms/switch)\n",
		st.ColdMisses, 1e3*st.FetchStall.Seconds(),
		1e3*st.FetchStall.Seconds()/max(1, float64(st.Switches)))
	fmt.Fprintf(w, "prefetch: issued %d completed %d cancelled %d failed %d  cache prefetch hits %d wasted %d\n",
		ps.Issued, ps.Completed, ps.Cancelled, ps.Failed,
		st.Cache.PrefetchHits, st.Cache.PrefetchWasted)
	if st.DegradedFrames > 0 || ps.BreakerOpens > 0 || ps.SkippedBreaker > 0 {
		fmt.Fprintf(w, "resilience: degraded frames %d  fallback served %d  breaker opens %d (plans skipped %d)\n",
			st.DegradedFrames, st.FallbackServed, ps.BreakerOpens, ps.SkippedBreaker)
	}
}

// chaosConfig carries the -chaos knobs into linkPrefetchConfig.
type chaosConfig struct {
	OutageRate       float64
	CorruptRate      float64
	BreakerThreshold int
	BreakerCooldown  int // frames
	// OnBreaker, when non-nil, observes every breaker state transition
	// (the flight recorder's KindBreaker feed).
	OnBreaker func(from, to breaker.State)
}

// linkPrefetchConfig builds the prefetch configuration used by
// -prefetch: a simulated link of the given stability carrying
// paper-scale model payloads, ticked once per processed frame. With
// chaos non-nil the link is wrapped in a seeded fault injector and the
// scheduler gets a circuit breaker on the simulated link clock; the
// demand path then fails fast during outages so degraded mode engages
// instead of stalling frames. The scheduler and breaker register their
// counters on reg; the returned LinkFetcher exposes the simulated link
// clock for the span tracer.
func linkPrefetchConfig(bundle *core.Bundle, stability float64, budget int64, seed uint64, chaos *chaosConfig, reg *telemetry.Registry) (*prefetch.Config, *prefetch.LinkFetcher, error) {
	link, err := netsim.NewLink(netsim.DefaultConfig(stability), xrand.NewLabeled(seed, "anole-run-link"))
	if err != nil {
		return nil, nil, err
	}
	var medium netsim.Medium = link
	if chaos != nil {
		medium = faults.WrapLink(link, faults.Config{
			Seed: seed,
			// The very first frame blocks on its fetch with an empty
			// cache; one grace step lets it through before injection.
			GraceSteps:  1,
			OutageRate:  chaos.OutageRate,
			CorruptRate: chaos.CorruptRate,
		})
	}
	lf, err := prefetch.NewLinkFetcher(medium, core.PrefetchModels(bundle), prefetch.DefaultFrameInterval)
	if err != nil {
		return nil, nil, err
	}
	cfg := &prefetch.Config{Fetcher: lf, BudgetBytes: budget, Metrics: reg}
	if chaos != nil {
		lf.SetDemandDownLimit(0)
		cfg.Breaker = breaker.New(breaker.Config{
			FailureThreshold: chaos.BreakerThreshold,
			Cooldown:         time.Duration(chaos.BreakerCooldown) * lf.Interval(),
			Now:              lf.Now,
			Metrics:          reg,
			OnTransition:     chaos.OnBreaker,
		})
	}
	return cfg, lf, nil
}

// adaptOptions carries the -adapt knobs into serve.
type adaptOptions struct {
	DriftWindow  int
	CanaryFrames int
	MinF1Ratio   float64
}

// runOptions carries the parsed flags and the run's shared telemetry
// into serve.
type runOptions struct {
	// Profile is the -device profile every stream runs on unless Fleet
	// assigns devices.
	Profile    device.Profile
	Streams    int
	CacheSlots int
	Clips      int
	Frames     int
	Seed       uint64
	TracePath  string
	JSONPath   string
	// Prefetch and Link are the -prefetch link configuration and its
	// fetcher (both nil without -prefetch).
	Prefetch *prefetch.Config
	Link     *prefetch.LinkFetcher
	// Adapt enables the continual-adaptation loop (nil without -adapt).
	Adapt   *adaptOptions
	Thermal bool
	// Fleet is the -fleet heterogeneous device assignment (nil = the
	// uniform -device profile); FleetSpec is the raw spec for display.
	// Plan enables per-device variant selection over the fleet.
	Fleet           device.Fleet
	FleetSpec       string
	Plan            bool
	Deadline        time.Duration
	Checkpoint      string
	CheckpointEvery int
	Restore         string
	Flight          *flight.Recorder
	SLO             *slo.Engine
	Metrics         *telemetry.Registry
	Spans           *telemetry.Tracer
}

// saveCheckpoint snapshots the fleet's warm state (plus the adapt
// loop's generation and drift windows when present) and writes it
// atomically.
func saveCheckpoint(mrt *core.MultiRuntime, loop *adapt.Loop, path string) error {
	c := mrt.CaptureCheckpoint()
	if loop != nil {
		loop.CaptureCheckpoint(c)
	}
	return pressure.SaveCheckpoint(path, c)
}

// unseenScene returns a semantic scene absent from the bundle encoder's
// training label space, preferring night scenes (the hardest shift).
func unseenScene(b *core.Bundle) (synth.Scene, error) {
	known := make(map[int]bool)
	for _, idx := range b.Encoder.ClassToScene {
		known[idx] = true
	}
	fallback := -1
	for idx := 0; idx < synth.NumScenes; idx++ {
		if known[idx] {
			continue
		}
		s := synth.SceneFromIndex(idx)
		if s.Time == synth.Night {
			return s, nil
		}
		if fallback < 0 {
			fallback = idx
		}
	}
	if fallback >= 0 {
		return synth.SceneFromIndex(fallback), nil
	}
	return synth.Scene{}, fmt.Errorf("every semantic scene was seen in training")
}

// adaptLoop wires the in-process device→cloud→device loop behind -adapt:
// a versioned repository seeded with the running bundle, a retraining
// controller over frames regenerated for the bundle's training scenes,
// and the canary rollout loop around the fleet. With -prefetch the
// transport learns a new generation's models before they become
// fetchable.
func adaptLoop(mrt *core.MultiRuntime, bundle *core.Bundle, world *synth.World, seed uint64, ao *adaptOptions, lf *prefetch.LinkFetcher, rec *flight.Recorder, eng *slo.Engine, reg *telemetry.Registry, spans *telemetry.Tracer) (*adapt.Loop, error) {
	srv, err := repo.NewServer(bundle)
	if err != nil {
		return nil, err
	}
	rng := xrand.NewLabeled(seed, "anole-run-adapt-train")
	const framesPerScene = 30
	seen := make(map[int]bool)
	var trainFrames []*synth.Frame
	for _, idx := range bundle.Encoder.ClassToScene {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		s := synth.SceneFromIndex(idx)
		for i := 0; i < framesPerScene; i++ {
			trainFrames = append(trainFrames, world.GenerateFrame(s, 1, rng))
		}
	}
	ctrl, err := adapt.NewController(bundle, srv, adapt.ControllerConfig{
		Seed:        seed + 1,
		TrainFrames: trainFrames,
		Train:       detect.TrainConfig{Epochs: 20},
		Sampling:    sampling.Config{Kappa: 600},
		Metrics:     reg,
		Tracer:      spans,
	})
	if err != nil {
		return nil, err
	}
	cfg := adapt.LoopConfig{
		Drift: adapt.DriftConfig{Window: ao.DriftWindow, Cooldown: 1},
		// The candidate serves a scene the incumbent cannot, so shared-
		// scene slack is tolerated by the default -min-f1-ratio; a broken
		// model still lands far below.
		Rollout:   adapt.RolloutConfig{CanaryFrames: ao.CanaryFrames, MinF1Ratio: ao.MinF1Ratio},
		Submitter: ctrl,
		Source:    adapt.NewServerSource(srv),
		Metrics:   reg,
		Tracer:    spans,
		Flight:    rec,
		SLO:       eng,
	}
	if lf != nil {
		cfg.RegisterModels = lf.AddModels
	}
	// Under pressure the uplink yields: drift reports defer while the
	// fleet reads Critical (nil monitor when -deadline is off).
	cfg.Pressure = mrt.PressureMonitor()
	return adapt.NewLoop(mrt, cfg)
}

// serve runs the streams through one core.MultiRuntime: every stream
// gets its own generated clip sequence and device simulator, all
// streams share one sharded model cache. With ro.Adapt set the run goes
// through the adaptation loop instead of bare ProcessStreams.
func serve(w io.Writer, bundle *core.Bundle, ro runOptions) error {
	streams, clips, seed := ro.Streams, ro.Clips, ro.Seed
	ao, tracePath := ro.Adapt, ro.TracePath
	mcfg := core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: ro.CacheSlots,
		Fleet:      device.UniformFleet(ro.Profile, streams),
		Prefetch:   ro.Prefetch,
		Metrics:    ro.Metrics,
		Tracer:     ro.Spans,
		Deadline:   ro.Deadline,
		Flight:     ro.Flight,
		SLO:        ro.SLO,
	}
	if ro.Fleet != nil {
		mcfg.Fleet = ro.Fleet
	}
	if ro.Plan {
		mcfg.Plan = &core.PlanConfig{}
	}
	if ro.Thermal {
		mcfg.Thermal = device.DefaultThermal()
	}
	mrt, err := core.NewMultiRuntime(bundle, mcfg)
	if err != nil {
		return err
	}

	world, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		return err
	}
	traceProfile := synth.DefaultProfiles(1)[1]
	traceProfile.FramesPerClip = ro.Frames
	rng := xrand.NewLabeled(seed, "anole-run-trace")

	inputs := make([][]*synth.Frame, streams)
	for s := 0; s < streams; s++ {
		for c := 0; c < clips; c++ {
			// Distinct clip IDs per stream so the streams see different
			// (but reproducible) scene sequences.
			id := s*clips + c
			clip := world.GenerateClip(traceProfile, 9000+id, rng.Split(uint64(id)))
			inputs[s] = append(inputs[s], clip.Frames...)
		}
	}

	var loop *adapt.Loop
	var novel synth.Scene
	if ao != nil {
		var err error
		if novel, err = unseenScene(bundle); err != nil {
			return err
		}
		// Stream 0 (the canary stream) meets the unseen scene for the
		// whole run; the other streams stay on in-distribution traces and
		// anchor the rollout's incumbent telemetry.
		arng := rng.Split(uint64(streams * clips))
		for i := range inputs[0] {
			inputs[0][i] = world.GenerateFrame(novel, 1, arng)
		}
		if loop, err = adaptLoop(mrt, bundle, world, seed, ao, ro.Link, ro.Flight, ro.SLO, ro.Metrics, ro.Spans); err != nil {
			return err
		}
	}

	if ro.Restore != "" {
		// A bad checkpoint (missing, truncated, corrupt, version-skewed)
		// must cost only warmth: log it and cold-start.
		if c, err := pressure.LoadCheckpoint(ro.Restore); err != nil {
			fmt.Fprintf(w, "restore: %v; cold start\n", err)
		} else if warmed, err := mrt.RestoreCheckpoint(c); err != nil {
			fmt.Fprintf(w, "restore: %v; cold start\n", err)
		} else {
			windows := 0
			if loop != nil {
				windows = loop.RestoreCheckpoint(c)
			}
			fmt.Fprintf(w, "restore: warmed %d models from %s (generation %d, drift windows %d)\n",
				warmed, ro.Restore, c.Generation, windows)
		}
	}

	var obs core.StreamObserver
	var tracers []*trace.Writer
	if tracePath != "" {
		tracers = make([]*trace.Writer, streams)
		for s := 0; s < streams; s++ {
			tf, err := os.Create(fmt.Sprintf("%s.stream%d", tracePath, s))
			if err != nil {
				return err
			}
			defer tf.Close()
			tracers[s] = trace.NewWriter(tf)
			defer tracers[s].Flush()
		}
		// Each stream writes only its own file.
		obs = func(stream int, f *synth.Frame, res core.FrameResult) error {
			return tracers[stream].Record(bundle, f, res)
		}
	}

	platform := ro.Profile.Name
	if ro.Fleet != nil {
		platform = "fleet " + ro.FleetSpec
		if ro.Plan {
			platform += " (planned)"
		}
	}
	fmt.Fprintf(w, "streaming %d streams x %d clips x %d frames on %s (cache %d, LFU)\n\n",
		streams, clips, ro.Frames, platform, ro.CacheSlots)
	if loop != nil {
		fmt.Fprintf(w, "adapt: stream 0 enters unseen scene %s (drift window %d, canary %d frames)\n\n",
			novel, ao.DriftWindow, ao.CanaryFrames)
		if _, err := loop.Run(inputs, obs); err != nil {
			return err
		}
	} else if ro.CheckpointEvery > 0 {
		// Chunked run: process CheckpointEvery ticks at a time and snap a
		// checkpoint after each chunk, so a process death loses at most
		// one chunk of warmth.
		maxLen := 0
		for s := range inputs {
			if len(inputs[s]) > maxLen {
				maxLen = len(inputs[s])
			}
		}
		chunk := make([][]*synth.Frame, streams)
		for start := 0; start < maxLen; start += ro.CheckpointEvery {
			for s := range inputs {
				chunk[s] = nil
				if start < len(inputs[s]) {
					end := start + ro.CheckpointEvery
					if end > len(inputs[s]) {
						end = len(inputs[s])
					}
					chunk[s] = inputs[s][start:end]
				}
			}
			if _, err := mrt.ProcessStreams(chunk, obs); err != nil {
				return err
			}
			if err := saveCheckpoint(mrt, loop, ro.Checkpoint); err != nil {
				return err
			}
		}
	} else if _, err := mrt.ProcessStreams(inputs, obs); err != nil {
		return err
	}
	if ro.Checkpoint != "" {
		// Snapshot before Close detaches the scheduler (the Markov counts
		// live behind it); the cache manifest is thread-safe against any
		// still-draining prefetches.
		if err := saveCheckpoint(mrt, loop, ro.Checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint: wrote %s\n", ro.Checkpoint)
	}

	for s := 0; s < streams; s++ {
		st := mrt.StreamStats(s)
		sim := mrt.StreamDevice(s)
		tag := ""
		if ro.Fleet != nil {
			tag = " [" + ro.Fleet[s].Class
			if v := mrt.StreamVariant(s); v != "" {
				tag += " " + v
			}
			tag += "]"
		}
		fmt.Fprintf(w, "stream %d%s: %d frames  F1 %.3f  switches %d  %.1f FPS busy  %.2f W avg  %.1f J  peak %.0f MB\n",
			s, tag, st.Frames, st.Detection.F1, st.Switches, sim.FPS(), sim.AveragePowerW(), sim.EnergyJ(), sim.PeakMemoryMB())
	}
	var fleetClasses []classReport
	if ro.Fleet != nil {
		fleetClasses = fleetReport(mrt)
	}
	for _, cr := range fleetClasses {
		variants := ""
		for _, v := range cr.Variants {
			if variants != "" {
				variants += " "
			}
			variants += fmt.Sprintf("%s×%d", v.Variant, v.Streams)
		}
		if variants != "" {
			variants = "  variants " + variants
		}
		fmt.Fprintf(w, "fleet %s (%s): %d streams  %d frames  mean %.1f ms/frame  %.1f J%s\n",
			cr.Class, cr.Profile, cr.Streams, cr.Frames, cr.MeanLatencyMs, cr.EnergyJ, variants)
	}

	// Drain the shared scheduler before snapshotting the aggregate, so
	// cache and scheduler counters are settled.
	sched := mrt.Prefetcher()
	mrt.Close()
	agg := mrt.Stats()
	fmt.Fprintf(w, "\naggregate: frames %d  switches %d  F1 %.3f (P %.3f / R %.3f)\n",
		agg.Frames, agg.Switches, agg.Detection.F1, agg.Detection.Precision, agg.Detection.Recall)
	fmt.Fprintf(w, "shared cache: hits %d misses %d evictions %d (miss rate %.2f)\n",
		agg.Cache.Hits, agg.Cache.Misses, agg.Cache.Evictions, agg.MissRate)
	printPrefetch(w, agg, sched)
	makespan := mrt.SimulatedMakespan()
	if ms := makespan.Seconds(); ms > 0 {
		fmt.Fprintf(w, "simulated makespan %.1f ms  aggregate %.1f frames/s (vs %.1f sequential)\n",
			1e3*ms, float64(agg.Frames)/ms, float64(agg.Frames)/agg.TotalLatency.Seconds())
	}
	press := mrt.PressureStats()
	if press != nil {
		fmt.Fprintf(w, "pressure: level %s  rung %s  shed %d  downgraded %d  quarantined %d frames (%d quarantines)\n",
			press.Level, press.Rung, press.ShedFrames, press.DowngradedServed,
			press.QuarantinedFrames, press.Quarantines)
	}
	var ast *adapt.LoopStats
	if loop != nil {
		st := loop.Stats()
		ast = &st
		fmt.Fprintf(w, "adapt: drift events %d  reports %d sent / %d lost (%d bytes up)\n",
			st.DriftEvents, st.ReportsSent, st.ReportFailures, st.ReportBytes)
		fmt.Fprintf(w, "adapt: canaries %d  promotions %d  rollbacks %d  rejected %d  fleet generation %d\n",
			st.CanaryStarts, st.Promotions, st.Rollbacks, st.RejectedCandidates, st.FleetGeneration)
	}
	if eng := ro.SLO; eng != nil {
		sst := eng.Status()
		fmt.Fprintf(w, "slo: p99 %.1f ms  served %.3f  degraded %.3f  staleness %.1f ms  alerts %v\n",
			1e3*sst.Long.LatencyP99.Seconds(), sst.Long.ServedFraction,
			sst.Long.DegradedFraction, 1e3*sst.Long.SwapStaleness.Seconds(), sst.Alerts)
		for _, cs := range sst.Classes {
			fmt.Fprintf(w, "slo fleet %s: p99 max %.1f ms  p99 median %.1f ms  served min %.3f  (%d streams)\n",
				cs.Class, 1e3*cs.LatencyP99Max.Seconds(), 1e3*cs.LatencyP99P50.Seconds(),
				cs.ServedFractionMin, cs.Streams)
		}
	}
	if rec := ro.Flight; rec != nil {
		line := fmt.Sprintf("flight: %d events retained", len(rec.Snapshot()))
		if d := rec.LastDump(); d != nil {
			line += fmt.Sprintf("  frozen on anomaly %q (%d events dropped since)", d.Reason, rec.Dropped())
		}
		fmt.Fprintln(w, line)
	}
	if tracers != nil {
		total := 0
		for _, tr := range tracers {
			total += tr.Count()
		}
		fmt.Fprintf(w, "trace: %d events written to %s.stream{0..%d}\n", total, tracePath, streams-1)
	}
	rep := buildReport(agg, sched, pfBreaker(ro.Prefetch), ast, press, ro.SLO, ro.Flight, ro.Metrics, ro.Spans)
	rep.Fleet = fleetClasses
	return writeReport(w, ro.JSONPath, rep)
}

// variantCount is one (variant, stream count) cell of a class report.
type variantCount struct {
	Variant string `json:"variant"`
	Streams int    `json:"streams"`
}

// classReport aggregates one device class of the fleet for the -json
// report's "fleet" block and the run summary.
type classReport struct {
	Class         string         `json:"class"`
	Profile       string         `json:"profile"`
	Streams       int            `json:"streams"`
	Frames        int            `json:"frames"`
	MeanLatencyMs float64        `json:"meanLatencyMs"`
	EnergyJ       float64        `json:"energyJ"`
	Variants      []variantCount `json:"variants,omitempty"`
}

// fleetReport folds per-stream stats into per-class aggregates, sorted
// by class (nil without -fleet).
func fleetReport(mrt *core.MultiRuntime) []classReport {
	fl := mrt.Fleet()
	if fl == nil {
		return nil
	}
	byClass := make(map[string]*classReport)
	var order []string
	var latency = make(map[string]time.Duration)
	variants := make(map[string]map[string]int)
	for s, a := range fl {
		cr := byClass[a.Class]
		if cr == nil {
			cr = &classReport{Class: a.Class, Profile: a.Profile.Name}
			byClass[a.Class] = cr
			order = append(order, a.Class)
			variants[a.Class] = make(map[string]int)
		}
		st := mrt.StreamStats(s)
		cr.Streams++
		cr.Frames += st.Frames
		latency[a.Class] += st.TotalLatency
		if sim := mrt.StreamDevice(s); sim != nil {
			cr.EnergyJ += sim.EnergyJ()
		}
		if v := mrt.StreamVariant(s); v != "" {
			variants[a.Class][v]++
		}
	}
	sort.Strings(order)
	out := make([]classReport, 0, len(order))
	for _, class := range order {
		cr := byClass[class]
		if cr.Frames > 0 {
			cr.MeanLatencyMs = 1e3 * latency[class].Seconds() / float64(cr.Frames)
		}
		names := make([]string, 0, len(variants[class]))
		for v := range variants[class] {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			cr.Variants = append(cr.Variants, variantCount{Variant: v, Streams: variants[class][v]})
		}
		out = append(out, *cr)
	}
	return out
}
