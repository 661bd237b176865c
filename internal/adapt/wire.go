package adapt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// reportWire is the JSON envelope a Report travels in over HTTP: scalar
// window statistics inline, exemplar frames as a base64 "ANLF" frame
// pack (encoding/json base64-encodes []byte). The frame pack carries its
// own geometry header and checksum, so a decoded report is structurally
// sound before the controller ever sees it.
type reportWire struct {
	Stream       int       `json:"stream"`
	Seq          int64     `json:"seq"`
	AtNs         int64     `json:"atNs"`
	Generation   uint64    `json:"generation"`
	Window       int       `json:"window"`
	MeanEntropy  float64   `json:"meanEntropy"`
	MeanNovelty  float64   `json:"meanNovelty"`
	Disagreement float64   `json:"disagreement"`
	Signals      int       `json:"signals"`
	Centroid     []float64 `json:"centroid"`
	Exemplars    []byte    `json:"exemplars"`
	Trace        string    `json:"trace,omitempty"`
}

// WriteReport serializes a report for the POST /v1/drift endpoint. A
// report needs at least one exemplar (the frame pack pins geometry from
// its first frame).
func WriteReport(w io.Writer, rep *Report) error {
	if rep == nil {
		return fmt.Errorf("adapt: nil report")
	}
	var pack bytes.Buffer
	if err := synth.EncodeFramesTrace(&pack, rep.Exemplars, rep.Trace); err != nil {
		return fmt.Errorf("adapt: encode exemplars: %w", err)
	}
	return json.NewEncoder(w).Encode(reportWire{
		Stream:       rep.Stream,
		Seq:          rep.Seq,
		AtNs:         rep.At.Nanoseconds(),
		Generation:   rep.Generation,
		Window:       rep.Window,
		MeanEntropy:  rep.MeanEntropy,
		MeanNovelty:  rep.MeanNovelty,
		Disagreement: rep.Disagreement,
		Signals:      rep.Signals,
		Centroid:     rep.Centroid,
		Exemplars:    pack.Bytes(),
		Trace:        rep.Trace,
	})
}

// ReadReport deserializes a report written by WriteReport, verifying the
// embedded frame pack's checksum.
func ReadReport(r io.Reader) (*Report, error) {
	var w reportWire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("adapt: decode report envelope: %w", err)
	}
	if len(w.Trace) > maxReportTrace {
		return nil, fmt.Errorf("adapt: report trace %d bytes exceeds limit %d", len(w.Trace), maxReportTrace)
	}
	frames, packTrace, err := synth.DecodeFramesTrace(bytes.NewReader(w.Exemplars))
	if err != nil {
		return nil, fmt.Errorf("adapt: decode exemplars: %w", err)
	}
	trace := w.Trace
	if trace == "" {
		trace = packTrace
	}
	return &Report{
		Stream:       w.Stream,
		Seq:          w.Seq,
		At:           time.Duration(w.AtNs),
		Generation:   w.Generation,
		Window:       w.Window,
		MeanEntropy:  w.MeanEntropy,
		MeanNovelty:  w.MeanNovelty,
		Disagreement: w.Disagreement,
		Signals:      w.Signals,
		Centroid:     tensor.Vector(w.Centroid),
		Exemplars:    frames,
		Trace:        trace,
	}, nil
}

// maxReportTrace is the longest trace ID a report may carry: the frame
// pack's own limit, so every report ReadReport accepts can be written
// again.
const maxReportTrace = 256

// maxReportBody bounds a drift report upload: 48 exemplars of the
// default geometry are well under a megabyte, so 8 MiB leaves room for
// larger worlds without letting a client exhaust the server.
const maxReportBody = 8 << 20

// submitVerdict is the drift endpoint's JSON response.
type submitVerdict struct {
	Generation uint64 `json:"generation"`
	Published  bool   `json:"published"`
	Error      string `json:"error,omitempty"`
}

// NewDriftHandler serves POST /v1/drift over a Submitter: one decoded
// report per request, Submit calls serialized (Controller is not safe
// for concurrent use), the submit verdict returned as JSON. Malformed
// bodies are the client's fault (400); a report the submitter accepts
// but cannot act on (failed retrain, dimension mismatch) is a 500 with
// the reason in the body.
func NewDriftHandler(s Submitter) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		rep, err := ReadReport(http.MaxBytesReader(w, r.Body, maxReportBody))
		if err != nil {
			writeVerdict(w, http.StatusBadRequest, submitVerdict{Error: err.Error()})
			return
		}
		if rep.Trace == "" {
			// Older clients carry the trace only in the HTTP header.
			rep.Trace = r.Header.Get(telemetry.TraceHeader)
		}
		mu.Lock()
		gen, published, err := s.Submit(rep)
		mu.Unlock()
		if err != nil {
			writeVerdict(w, http.StatusInternalServerError, submitVerdict{Error: err.Error()})
			return
		}
		writeVerdict(w, http.StatusOK, submitVerdict{Generation: gen, Published: published})
	})
}

func writeVerdict(w http.ResponseWriter, status int, v submitVerdict) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPSubmitter is the device side of the drift endpoint: a Submitter
// that POSTs each report to URL (anole-server's /v1/drift) and relays
// the controller's verdict, so a Loop can run against a remote
// controller exactly as it runs against an in-process one.
type HTTPSubmitter struct {
	// URL is the full endpoint URL, e.g. http://cloud:8080/v1/drift.
	URL string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// Submit implements Submitter over HTTP.
func (h *HTTPSubmitter) Submit(rep *Report) (uint64, bool, error) {
	var body bytes.Buffer
	if err := WriteReport(&body, rep); err != nil {
		return 0, false, err
	}
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodPost, h.URL, &body)
	if err != nil {
		return 0, false, fmt.Errorf("adapt: build drift request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rep.Trace != "" {
		req.Header.Set(telemetry.TraceHeader, rep.Trace)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, fmt.Errorf("adapt: post drift report: %w", err)
	}
	defer resp.Body.Close()
	var v submitVerdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, false, fmt.Errorf("adapt: drift endpoint status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("adapt: drift endpoint status %d: %s", resp.StatusCode, v.Error)
	}
	return v.Generation, v.Published, nil
}
