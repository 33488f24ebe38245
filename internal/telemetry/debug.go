package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// SnapshotFunc produces the snapshot a debug endpoint serves. beesd uses
// one that merges its registry with client-pushed pipeline snapshots.
type SnapshotFunc func() Snapshot

// HandlerFunc serves the JSON encoding of whatever snapshot f produces —
// the /debug/vars-style endpoint beesd exposes and `beesctl stats`
// consumes.
func HandlerFunc(f SnapshotFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := f().MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(append(body, '\n'))
	})
}

// DebugMuxFunc returns the debug HTTP mux beesd binds on -debug-addr:
// the JSON encoding of f's snapshot at /debug/vars plus the standard
// net/http/pprof endpoints under /debug/pprof/.
func DebugMuxFunc(f SnapshotFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", HandlerFunc(f))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
