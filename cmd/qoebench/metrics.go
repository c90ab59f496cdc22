package main

import (
	"net"
	"net/http"
	"net/http/pprof"

	"bufferqoe"
)

// newMetricsMux builds the -metrics-addr handler:
//
//	/metrics       Prometheus text exposition of the run's collector
//	/debug/pprof/  the standard pprof index, profiles, and traces
//
// CPU profiles taken during a sweep carry the engine's pprof labels
// (qoe_testbed/qoe_scenario/qoe_media/qoe_buffer), so samples
// attribute to scenario coordinates.
func newMetricsMux(col *bufferqoe.Collector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		col.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startMetricsServer serves newMetricsMux on addr in the background
// and returns the bound address (useful with ":0") and a shutdown
// function.
func startMetricsServer(addr string, col *bufferqoe.Collector) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: newMetricsMux(col)}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return ln.Addr().String(), func() { srv.Close() }, nil
}
