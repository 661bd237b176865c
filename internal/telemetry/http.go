package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// MetricsHandler serves the gatherer's snapshot as Prometheus text
// exposition — the GET /metrics surface of anole-server and the
// anole-run -metrics-addr debug listener.
func MetricsHandler(g Gatherer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteText(w, g)
	})
}

// DefaultSpanDumpLimit caps how many spans one /debug/spans request
// returns when the caller does not pass an explicit limit, so a large
// ring does not dump megabytes per request.
const DefaultSpanDumpLimit = 4096

// SpansHandler serves the tracer's retained spans as a JSON array,
// oldest first — the GET /debug/spans surface. Query parameters narrow
// the dump: ?stream=N keeps one stream's spans, ?trace=ID keeps one
// causal trace's, and ?limit=N caps the response to the most recent N
// spans (default DefaultSpanDumpLimit).
func SpansHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		stream := -1
		if v := q.Get("stream"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad stream: want a non-negative integer", http.StatusBadRequest)
				return
			}
			stream = n
		}
		limit := DefaultSpanDumpLimit
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: want a positive integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		spans := t.SnapshotFiltered(q.Get("trace"), stream, limit)
		if spans == nil {
			spans = []Span{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(spans)
	})
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// InstrumentHandler wraps next with request telemetry: a total-request
// counter, an error (status >= 500) counter, a wall-clock latency
// histogram, and one span per request (Stage = METHOD path) in the
// tracer. Metric names are prefixed "anole_<component>_"; any of reg
// and tracer may be nil.
func InstrumentHandler(reg *Registry, tracer *Tracer, component string, next http.Handler) http.Handler {
	requests := reg.Counter("anole_"+component+"_requests_total", "HTTP requests served")
	errors := reg.Counter("anole_"+component+"_request_errors_total", "HTTP responses with status >= 500")
	latency := reg.Histogram("anole_"+component+"_request_seconds", "HTTP request wall-clock latency", nil)
	inflight := reg.Gauge("anole_"+component+"_inflight_requests", "HTTP requests currently being served")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		inflight.Add(-1)
		d := time.Since(start)
		requests.Inc()
		latency.Observe(d.Seconds())
		span := Span{
			Seq:   tracer.NextSeq(),
			Stage: r.Method + " " + r.URL.Path,
			Model: -1,
			Dur:   d,
			Trace: r.Header.Get(TraceHeader),
		}
		if rec.status >= 500 {
			errors.Inc()
			span.Err = http.StatusText(rec.status)
		}
		tracer.Record(span)
	})
}

// ParsedSeries is one scraped Prometheus series: a metric name, its
// sorted label set rendered verbatim (e.g. `{le="0.5"}`, empty for
// unlabeled series), and the value.
type ParsedSeries struct {
	Name   string
	Labels string
	Value  float64
}

// ParseText parses Prometheus text exposition (the format WriteText
// emits) into series. It returns an error on malformed lines or on
// duplicate series — the same (name, labels) appearing twice — which is
// what the CI scrape check and the modelserver example dashboard
// consume.
func ParseText(r io.Reader) ([]ParsedSeries, error) {
	var out []ParsedSeries
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "name[{labels}] value": split on the last space.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("telemetry: malformed series line %q", line)
		}
		series, valText := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad value in %q: %w", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
			if !strings.HasSuffix(labels, "}") {
				return nil, fmt.Errorf("telemetry: malformed labels in %q", line)
			}
		}
		if seen[series] {
			return nil, fmt.Errorf("telemetry: duplicate series %q", series)
		}
		seen[series] = true
		out = append(out, ParsedSeries{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LintText validates a Prometheus text exposition (the format WriteText
// emits) against the repository metric naming scheme: every metric's
// kind is read from its # TYPE header, every series must belong to a
// declared metric (histograms expose _bucket/_sum/_count under the
// declared base name), and the declared set must pass ValidateScheme's
// family, suffix and uniqueness rules. This is the Go half of the CI
// scrape check — cmd/anole-metrics-lint pipes a live scrape through it.
func LintText(r io.Reader) error {
	kinds := make(map[string]Kind)
	var samples []Sample
	var body strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		rest, isType := strings.CutPrefix(line, "# TYPE ")
		if !isType {
			if !strings.HasPrefix(line, "#") {
				body.WriteString(line)
				body.WriteByte('\n')
			}
			continue
		}
		name, kindText, found := strings.Cut(rest, " ")
		if !found {
			return fmt.Errorf("telemetry: malformed TYPE line %q", line)
		}
		var k Kind
		switch kindText {
		case "counter":
			k = KindCounter
		case "gauge":
			k = KindGauge
		case "histogram":
			k = KindHistogram
		default:
			return fmt.Errorf("telemetry: metric %q declares unknown type %q", name, kindText)
		}
		if _, dup := kinds[name]; dup {
			return fmt.Errorf("telemetry: metric %q declared twice", name)
		}
		kinds[name] = k
		samples = append(samples, Sample{Name: name, Kind: k})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	series, err := ParseText(strings.NewReader(body.String()))
	if err != nil {
		return err
	}
	for _, s := range series {
		if _, ok := kinds[s.Name]; ok {
			continue
		}
		base := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(s.Name, suffix); ok {
				base = b
				break
			}
		}
		if kinds[base] != KindHistogram {
			return fmt.Errorf("telemetry: series %q has no TYPE declaration", s.Name)
		}
	}
	return ValidateScheme(samples)
}

// SeriesValue returns the value of the unlabeled series name in a
// parsed scrape (0, false when absent).
func SeriesValue(series []ParsedSeries, name string) (float64, bool) {
	for _, s := range series {
		if s.Name == name && s.Labels == "" {
			return s.Value, true
		}
	}
	return 0, false
}

// ScrapedQuantile estimates the q-th quantile of histogram name from
// its scraped _bucket series by linear interpolation inside the bucket
// that crosses the target rank — the standard histogram_quantile
// estimate. Returns 0, false when the histogram is absent or empty.
func ScrapedQuantile(series []ParsedSeries, name string, q float64) (float64, bool) {
	type bucket struct {
		upper float64
		count float64
	}
	var buckets []bucket
	for _, s := range series {
		if s.Name != name+"_bucket" {
			continue
		}
		le := s.Labels
		le = strings.TrimPrefix(le, `{le="`)
		le = strings.TrimSuffix(le, `"}`)
		var upper float64
		if le == "+Inf" {
			upper = le64Inf
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			upper = v
		}
		buckets = append(buckets, bucket{upper: upper, count: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].upper < buckets[j].upper })
	total := buckets[len(buckets)-1].count
	if total == 0 {
		return 0, false
	}
	rank := float64(q * total)
	var prevUpper, prevCount float64
	for _, b := range buckets {
		if b.count >= rank {
			if b.upper == le64Inf {
				return prevUpper, true
			}
			if b.count == prevCount {
				return b.upper, true
			}
			frac := (rank - prevCount) / (b.count - prevCount)
			return prevUpper + float64((b.upper-prevUpper)*frac), true
		}
		prevUpper, prevCount = b.upper, b.count
	}
	return prevUpper, true
}

// le64Inf stands in for the +Inf bucket bound during parsing.
const le64Inf = 1e308
