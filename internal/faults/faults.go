// Package faults is a deterministic, seeded fault injector for the
// device↔cloud path. It wraps the simulated netsim link a device fetches
// model bytes over (WrapLink) and injects the failures real deployments
// see: outage bursts, flapping connectivity and corrupted transfers.
//
// Every decision is drawn from an xrand stream derived from Config.Seed,
// so a chaos run replays identically from its seed: the regression tests
// in bench_chaos_test.go depend on it. Injected faults are counted in
// Stats so tests can assert the chaos actually bit.
package faults

// Config parameterizes an injector. The zero value injects nothing.
type Config struct {
	// Seed derives the injector's private random stream; two injectors
	// with equal Config produce identical fault schedules.
	Seed uint64

	// GraceSteps suppresses all injection for the first N link Step
	// calls, so a run's cold start — the one fetch that has no cached
	// model to fall back on — completes before the chaos begins.
	GraceSteps int

	// OutageRate is the per-step probability of starting a forced outage
	// burst; during a burst the link reports Down regardless of the
	// underlying state. Burst lengths are geometric with mean
	// OutageMeanSteps (default 5), so short bursts dominate — the
	// flapping-connectivity pattern — with an exponential tail of longer
	// outages.
	OutageRate      float64
	OutageMeanSteps float64

	// CorruptRate is the per-transfer probability the payload arrives
	// damaged, flagged corrupt (the simulated link's transfers carry no
	// real bytes).
	CorruptRate float64
}

// Stats counts injected faults.
type Stats struct {
	// Outages counts forced outage bursts; OutageSteps the total steps
	// spent inside them.
	Outages     int64
	OutageSteps int64
	// Corrupted counts payloads delivered damaged.
	Corrupted int64
}
