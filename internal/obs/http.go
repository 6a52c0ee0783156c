package obs

import (
	"net/http"
	"net/http/pprof"
	"time"

	"rc4break/internal/metrics"
)

// Connection limits every daemon HTTP server gets. There is deliberately no
// WriteTimeout: GET /api/v1/jobs/{id}/stream holds its response open for a
// job's whole lifetime.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns the HTTP server both daemons serve h with: a client
// that trickles request headers or parks an idle keep-alive connection is
// cut off instead of holding a goroutine forever.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// DroppedSpansGauge registers prefix+"_trace_spans_dropped" on reg: the
// spans j's ring has overwritten, read from Stats at scrape time, so a
// journal too small for its traffic shows up on /metrics.
func DroppedSpansGauge(reg *metrics.Registry, prefix string, j *Journal) {
	reg.GaugeFunc(prefix+"_trace_spans_dropped", "spans overwritten by the trace journal's ring before export",
		func() float64 { _, dropped := j.Stats(); return float64(dropped) })
}

// TraceHandler serves the journal's current contents as NDJSON — the
// GET /debug/trace surface on both daemons.
func TraceHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = WriteNDJSON(w, j.Snapshot())
	})
}

// ChromeHandler serves the journal as Chrome trace-event JSON — save the
// response and load it in chrome://tracing or https://ui.perfetto.dev.
func ChromeHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		_ = WriteChrome(w, j.Snapshot())
	})
}

// MountDebug registers the live debug surface on mux: /debug/trace (NDJSON),
// /debug/trace/chrome (trace-event JSON), and the net/http/pprof handlers
// under /debug/pprof/. The pprof handlers are registered explicitly rather
// than via the package's DefaultServeMux side effect, so daemons using their
// own mux get them too.
func MountDebug(mux *http.ServeMux, j *Journal) {
	mux.Handle("GET /debug/trace", TraceHandler(j))
	mux.Handle("GET /debug/trace/chrome", ChromeHandler(j))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
