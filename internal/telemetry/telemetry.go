// Package telemetry is the repository's unified observability layer: a
// dependency-free, race-clean metrics registry (atomic counters, gauges
// and fixed-bucket histograms) plus lightweight span tracing for the
// per-frame pipeline, both built for simulated as well as wall-clock
// time.
//
// Every instrumented component — the core runtime, the sharded model
// cache, the prefetch scheduler, the circuit breaker, the HTTP servers
// — registers its counters here under one naming scheme,
//
//	anole_<pkg>_<name>[_total|_seconds|_bytes]
//
// so a single Registry (or a Multi of several) renders the whole
// system's live state as Prometheus text exposition (WriteText), a flat
// JSON-friendly map (Map), or per-metric snapshots (Gather).
//
// Handles are nil-safe: a nil *Counter, *Gauge, *Histogram, *Registry
// or *Tracer accepts every call as a no-op, so instrumentation sites
// need no "is telemetry on?" branches and the disabled path costs one
// predictable nil check.
//
// Clocks are injectable everywhere a timestamp is taken (Tracer), so
// chaos tests driven by a simulated frame-tick clock observe fully
// deterministic telemetry.
package telemetry

import (
	"fmt"
	"strings"
)

// validName reports whether name fits the metric naming scheme:
// lowercase snake_case, beginning with a letter. The "anole_" prefix is
// a repository convention checked by ValidateScheme, not here, so the
// package stays reusable.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// schemeFamilies are the instrumented component families the scheme
// admits as the segment after the "anole_" prefix. A metric outside
// them is either a typo or a new subsystem that must be added here
// deliberately — which is how the family list stays an inventory of
// what the fleet exports.
var schemeFamilies = map[string]bool{
	"core":       true,
	"modelcache": true,
	"prefetch":   true,
	"breaker":    true,
	"repo":       true,
	"adapt":      true,
	"pressure":   true,
	"server":     true,
	"slo":        true,
	"flight":     true,
	// fleet carries the per-device-class SLO aggregates
	// (anole_fleet_<class>_...), plan the per-device variant planner.
	"fleet": true,
	"plan":  true,
}

// histogramUnits are the unit suffixes a histogram name may carry.
// A unitless histogram ("anole_core_batch_size") is ambiguous on a
// dashboard; the scheme demands the unit in the name.
var histogramUnits = []string{"_seconds", "_bytes", "_frames"}

// ValidateScheme checks a gathered snapshot against the repository
// naming convention and returns the first violation found (nil when
// the snapshot is clean). The rules:
//
//   - every name is lowercase snake_case under the "anole_" prefix;
//   - the segment after the prefix names a known component family
//     (core, modelcache, prefetch, breaker, repo, adapt, pressure,
//     server, slo, flight, fleet, plan);
//   - no name appears twice (two registries in a Multi exporting the
//     same series);
//   - kind-aware suffixes, for samples whose Kind is set: counters end
//     "_total", gauges are bare nouns (never "_total"), histograms end
//     in a unit ("_seconds", "_bytes" or "_frames").
//
// CI scrapes /metrics and fails the build on exactly these
// conditions. Samples with a zero Kind (hand-built fixtures) skip the
// kind rules; everything produced by Registry.Gather carries its Kind.
func ValidateScheme(samples []Sample) error {
	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		if !validName(s.Name) {
			return fmt.Errorf("telemetry: invalid metric name %q", s.Name)
		}
		if len(s.Name) < 6 || s.Name[:6] != "anole_" {
			return fmt.Errorf("telemetry: metric %q outside the anole_ namespace", s.Name)
		}
		family, _, _ := strings.Cut(s.Name[6:], "_")
		if !schemeFamilies[family] {
			return fmt.Errorf("telemetry: metric %q names unknown family %q", s.Name, family)
		}
		if seen[s.Name] {
			return fmt.Errorf("telemetry: duplicate metric name %q", s.Name)
		}
		seen[s.Name] = true
		switch s.Kind {
		case KindCounter:
			if !strings.HasSuffix(s.Name, "_total") {
				return fmt.Errorf("telemetry: counter %q must end in _total", s.Name)
			}
		case KindGauge:
			if strings.HasSuffix(s.Name, "_total") {
				return fmt.Errorf("telemetry: gauge %q must not end in _total", s.Name)
			}
		case KindHistogram:
			unit := false
			for _, u := range histogramUnits {
				if strings.HasSuffix(s.Name, u) {
					unit = true
					break
				}
			}
			if !unit {
				return fmt.Errorf("telemetry: histogram %q must carry a unit suffix (%s)",
					s.Name, strings.Join(histogramUnits, ", "))
			}
		}
	}
	return nil
}
