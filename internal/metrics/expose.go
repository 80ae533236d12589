package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// baseName strips a baked-in label block: `x_total{a="b"}` → `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel merges one more label pair into a possibly-labelled name:
// withLabel(`x{a="b"}`, "le", "0.1") → `x{a="b",le="0.1"}`.
func withLabel(name, key, value string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// suffixName appends a Prometheus suffix before the label block:
// suffixName(`x{a="b"}`, "_sum") → `x_sum{a="b"}`.
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (text/plain; version=0.0.4). Series are emitted in sorted name
// order so scrapes and tests see a deterministic document; histogram
// sums are rendered in seconds, the Prometheus convention for latency.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	emitType := func(name, kind string) error {
		base := baseName(name)
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := emitType(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := emitType(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := emitType(name, "histogram"); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			le := fmt.Sprintf("%g", bound.Seconds())
			if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(suffixName(name, "_bucket"), "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(suffixName(name, "_bucket"), "le", "+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", suffixName(name, "_sum"), h.Sum.Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", suffixName(name, "_count"), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Handler serves the registry's current state at scrape time: JSON when
// the request asks for it (?format=json or an Accept header preferring
// application/json), Prometheus text otherwise. The text document ends
// with the Go scheduler's latency over the interval since this handler's
// previous scrape (go_sched_latency_seconds, go_sched_gomaxprocs), read
// from runtime/metrics at scrape time; they are floats the Snapshot's
// integer maps cannot hold, so the JSON form does not carry them.
func (r *Registry) Handler() http.Handler {
	sched := newSchedSampler()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if snap.WritePrometheus(w) == nil {
			_ = sched.writePrometheus(w)
		}
	})
}

// Server is a running telemetry endpoint.
type Server struct {
	Addr string // the bound address, resolved from ":0" if requested
	srv  *http.Server
	ln   net.Listener
}

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Route is an extra handler mounted on a telemetry server — how
// subsystems this package must not depend on (the flight recorder's
// /debug/flight, a tracer's span dump) ride the same listener.
type Route struct {
	Pattern string
	Handler http.Handler
}

// Serve starts an HTTP server on addr exposing:
//
//	/metrics        — the registry (Prometheus text, or JSON via ?format=json)
//	/debug/pprof/*  — the standard runtime profiles
//
// plus any extra routes, and returns once the listener is bound, serving
// in a background goroutine; the caller owns Close. This is the backend
// of the binaries' -telemetry flag.
func Serve(addr string, reg *Registry, extra ...Route) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	for _, r := range extra {
		if r.Pattern != "" && r.Handler != nil {
			mux.Handle(r.Pattern, r.Handler)
		}
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: telemetry listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}
