package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"sync"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
	"roadrunner/internal/core"
)

// server is what the daemon serves beside the coordinator's own routes:
// liveness, stored runs and their traces, and /metrics.
type server struct {
	co *cluster.Coordinator
	// local is the in-process node's executor, the /metrics source for
	// simulation throughput; nil under -cluster, where nothing executes
	// in this process.
	local *cluster.Runner

	mu sync.Mutex
	// Trace observability counters: traces generated by the trace endpoint
	// and their span counts, attributed per campaign ("" = no registered
	// campaign claims the run key, e.g. a store entry from a prior process).
	tracesGenerated int
	traceSpans      map[string]int
}

func newServer(co *cluster.Coordinator, local *cluster.Runner) *server {
	return &server{co: co, local: local, traceSpans: make(map[string]int)}
}

// routes builds the API handler: the coordinator's routes (campaigns
// under both prefixes, the worker verbs) plus the daemon's own.
// pprofEnabled mounts net/http/pprof's profiling handlers under
// /debug/pprof/ — opt-in, since profiles expose host internals and cost
// CPU while sampling.
func (s *server) routes(pprofEnabled bool) *http.ServeMux {
	mux := http.NewServeMux()
	s.co.Routes(mux)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/runs/{key}", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{key}/trace", s.handleTrace)
	if pprofEnabled {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// resumeJournaled re-registers every journaled campaign in the store with
// the coordinator. Completed campaigns finish instantly as pure cache
// hits; interrupted ones find their unfinished runs already in the durable
// queue, waiting for a node. A journal that cannot be resumed is skipped
// with one line on out saying why.
func resumeJournaled(co *cluster.Coordinator, out io.Writer) (int, error) {
	ids, err := co.Store().JournaledCampaignIDs()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if err := co.Resume(id); err != nil {
			fmt.Fprintf(out, "roadrunnerd: journal %s not resumed: %v\n", id, err)
			continue
		}
		n++
	}
	return n, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleRun serves a stored run. The default view is the verified
// canonical result bytes — exactly what a fresh execution of the run's
// spec would produce; ?view=meta and ?view=spec serve the sidecars.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	store := s.co.Store()
	key := r.PathValue("key")
	switch view := r.URL.Query().Get("view"); view {
	case "", "canonical":
		data, err := store.CanonicalBytes(key)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				httpError(w, http.StatusNotFound, fmt.Errorf("no stored run %q", key))
				return
			}
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(data)
	case "meta":
		meta, err := store.Meta(key)
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no stored run %q", key))
			return
		}
		writeJSON(w, http.StatusOK, meta)
	case "spec":
		spec, err := store.Spec(key)
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no stored run %q", key))
			return
		}
		writeJSON(w, http.StatusOK, spec)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown view %q", view))
	}
}

// handleTrace serves a run's simulated-time span trace. Tracing is not
// recorded during campaign execution (it is off on the hot path); instead
// the stored spec is re-executed with tracing enabled — determinism
// guarantees the traced re-run matches the stored result — and both export
// formats are cached as store sidecars, so each run pays the re-execution
// once. ?format=json (default) is Chrome trace_event JSON for
// chrome://tracing or Perfetto; ?format=csv is the canonical byte-identical
// form.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	store := s.co.Store()
	key := r.PathValue("key")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown trace format %q", format))
		return
	}
	if data, err := store.TraceBytes(key, format); err == nil {
		serveTrace(w, format, data)
		return
	}
	spec, err := store.Spec(key)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no stored run %q", key))
		return
	}
	spec.Config.Trace = true
	res, err := spec.Execute()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("traced re-run: %w", err))
		return
	}
	if res.Trace == nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("traced re-run produced no trace"))
		return
	}
	csvBytes, err := res.Trace.CanonicalBytes()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var jsonBuf bytes.Buffer
	if err := res.Trace.WriteChromeJSON(&jsonBuf); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// Cache both formats; failures only cost a re-execution next time.
	_ = store.PutTraceBytes(key, "csv", csvBytes)
	_ = store.PutTraceBytes(key, "json", jsonBuf.Bytes())
	s.recordTrace(key, len(res.Trace.Spans))
	if format == "csv" {
		serveTrace(w, format, csvBytes)
		return
	}
	serveTrace(w, format, jsonBuf.Bytes())
}

func serveTrace(w http.ResponseWriter, format string, data []byte) {
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_, _ = w.Write(data)
}

// recordTrace attributes a freshly generated trace's span count to every
// registered campaign containing the run key (the same spec can appear in
// several campaigns; each sees its own spans on /metrics).
func (s *server) recordTrace(key string, spans int) {
	statuses := s.co.Campaigns()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracesGenerated++
	attributed := false
	for _, st := range statuses {
		for _, run := range st.Runs {
			if run.Key == key {
				s.traceSpans[st.ID] += spans
				attributed = true
				break
			}
		}
	}
	if !attributed {
		s.traceSpans[""] += spans
	}
}

// handleMetrics renders coordinator, executor and store gauges in
// Prometheus text exposition format. Campaign and run tallies come from
// the coordinator; simulated seconds, events and host seconds from the
// in-process node's pool (zero under -cluster: joined workers execute).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.co.Stats()
	var pool campaign.Stats
	if s.local != nil {
		pool = s.local.Stats()
	}
	// Per-campaign span counts, sorted by campaign ID; unattributed traces
	// (store entries no registered campaign claims) appear as campaign="".
	s.mu.Lock()
	tracesGenerated := s.tracesGenerated
	spanLines := make([]string, 0, len(s.traceSpans))
	for id, n := range s.traceSpans {
		spanLines = append(spanLines, fmt.Sprintf("roadrunnerd_trace_spans_total{campaign=%q} %d\n", id, n))
	}
	s.mu.Unlock()
	sort.Strings(spanLines)
	world := core.WorldCacheStats()
	throughput := 0.0
	if pool.WallSeconds > 0 {
		throughput = pool.SimSeconds / pool.WallSeconds
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics := []struct {
		name, kind, help string
		value            any
	}{
		{"roadrunnerd_queue_depth", "gauge", "Runs waiting for a node.", cs.Pending},
		{"roadrunnerd_runs_active", "gauge", "Runs leased to a node.", cs.Leased},
		{"roadrunnerd_runs_executed_total", "counter", "Fresh simulation executions.", cs.Executed},
		{"roadrunnerd_runs_cached_total", "counter", "Store hits that skipped execution.", cs.Cached},
		{"roadrunnerd_runs_failed_total", "counter", "Runs whose every attempt failed.", cs.Failed},
		{"roadrunnerd_runs_retried_total", "counter", "Extra attempts after failures.", pool.Retried},
		{"roadrunnerd_sim_seconds_total", "counter", "Simulated seconds executed.", pool.SimSeconds},
		{"roadrunnerd_sim_events_total", "counter", "Simulation events processed by fresh executions.", pool.EventsExecuted},
		{"roadrunnerd_wall_seconds_total", "counter", "Host seconds spent in fresh executions.", pool.WallSeconds},
		{"roadrunnerd_simsec_per_wallsec", "gauge", "Aggregate simulation throughput.", throughput},
		{"roadrunnerd_store_corruptions_total", "counter", "Store entries evicted for failing integrity checks.", s.co.Store().Corruptions()},
		{"roadrunnerd_campaigns_total", "counter", "Campaigns registered since startup.", cs.Campaigns},
		{"roadrunnerd_traces_generated_total", "counter", "Traced re-executions served by the trace endpoint.", tracesGenerated},
		{"roadrunner_world_cache_hits_total", "counter", "Runs in this process that reused the retained (environment, seed) world.", world.Hits},
		{"roadrunner_world_cache_misses_total", "counter", "Runs in this process that generated their world.", world.Misses},
		{"roadrunner_world_cache_skipped_oversize_total", "counter", "Generated worlds too large to retain.", world.SkippedOversize},
		{"roadrunner_world_cache_retained_bytes", "gauge", "Estimated size of the world currently retained.", world.RetainedBytes},
		{"roadrunner_world_memo_train_hits_total", "counter", "Training tasks taken from a world's memo instead of computed.", world.TrainMemoHits},
		{"roadrunner_world_memo_train_misses_total", "counter", "Training tasks looked up in a world's memo and computed.", world.TrainMemoMisses},
		{"roadrunner_world_memo_eval_hits_total", "counter", "Test evaluations taken from a world's memo instead of computed.", world.EvalMemoHits},
		{"roadrunner_world_memo_eval_misses_total", "counter", "Test evaluations looked up in a world's memo and computed.", world.EvalMemoMisses},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", m.name, m.help, m.name, m.kind, m.name, m.value)
	}
	fmt.Fprintf(w, "# HELP roadrunnerd_trace_spans_total Spans emitted by generated traces, per campaign.\n# TYPE roadrunnerd_trace_spans_total counter\n%s", strings.Join(spanLines, ""))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
