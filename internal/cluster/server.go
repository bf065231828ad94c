package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// Server exposes the coordinator over HTTP with the same surface (and the
// same dual mounting — versioned /v1/ plus the legacy unprefixed alias) as a
// single diod node, so clients point at a coordinator with nothing but a
// base-URL change:
//
//	POST   /v1/{index}/_bulk       events (binary frame or NDJSON pairs), striped to owners
//	POST   /v1/{index}/_search     scattered to all partitions, merged once; JSON or typed hits by Accept
//	POST   /v1/{index}/_count      scattered, summed
//	POST   /v1/{index}/_correlate  501: not routable across partitions
//	POST   /v1/{index}/_diagnose   501: not routable across partitions
//	POST   /v1/{index}/_dfg        501: not routable across partitions
//	POST   /v1/{index}/_diff       501: not routable across partitions
//	GET    /v1/{index}/_stats      aggregated, with per-partition breakdown
//	GET    /v1/_cat/indices        union of partition index lists
//	GET    /v1/_health             per-partition liveness, roles, breaker state
//	GET    /v1/metrics             coordinator routing/fan-out counters
//	DELETE /v1/{index}             dropped on every partition
type Server struct {
	co  *Coordinator
	mux *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// NewServer wraps a coordinator in an HTTP handler.
func NewServer(co *Coordinator) *Server {
	s := &Server{co: co, mux: http.NewServeMux()}
	inner := http.NewServeMux()
	inner.HandleFunc("/_cat/indices", s.handleCatIndices)
	inner.HandleFunc("/_health", s.handleHealth)
	inner.HandleFunc("/metrics", s.handleMetrics)
	inner.HandleFunc("/", s.handleIndexOps)
	s.mux.Handle("/", inner)
	s.mux.Handle("/v1/", http.StripPrefix("/v1", inner))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleCatIndices(w http.ResponseWriter, r *http.Request) {
	names, err := s.co.ListIndices(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.co.Health(r.Context()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.co.Telemetry().WriteText(w)
}

func (s *Server) handleIndexOps(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] != "" && r.Method == http.MethodDelete:
		if err := s.co.DeleteIndex(r.Context(), parts[0]); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"acknowledged": true})
	case len(parts) == 2:
		index, op := parts[0], parts[1]
		switch op {
		case "_bulk":
			s.handleBulk(w, r, index)
		case "_search":
			s.handleSearch(w, r, index)
		case "_count":
			s.handleCount(w, r, index)
		case "_correlate":
			s.handleNotRoutable(w, r, ErrCorrelateUnsupported)
		case "_diagnose":
			s.handleNotRoutable(w, r, ErrDiagnoseUnsupported)
		case "_dfg":
			s.handleNotRoutable(w, r, ErrDFGUnsupported)
		case "_diff":
			s.handleNotRoutable(w, r, ErrDiffUnsupported)
		case "_stats":
			s.handleStats(w, r, index)
		default:
			httpError(w, http.StatusNotFound, "unknown operation %q", op)
		}
	default:
		httpError(w, http.StatusNotFound, "not found")
	}
}

// handleBulk accepts the same two encodings a node does — the binary event
// frame, or Elasticsearch-style NDJSON through the store's strict edge
// decoder — and stripes the events to their owner partitions.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, event.ContentTypeBinaryV1) {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		items, err := s.co.BulkFrame(r.Context(), index, buf.Bytes())
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"items": items})
		return
	}
	events, err := store.DecodeBulkNDJSON(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bulk: %v", err)
		return
	}
	if err := s.co.BulkEvents(r.Context(), index, events); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"items": len(events)})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req store.SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad search request: %v", err)
		return
	}
	res, err := s.co.SearchEvents(r.Context(), index, req)
	if err != nil {
		writeError(w, err)
		return
	}
	store.WriteSearchResult(w, r, res)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, index string) {
	var q store.Query
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			httpError(w, http.StatusBadRequest, "bad query: %v", err)
			return
		}
	}
	n, err := s.co.Count(r.Context(), index, q)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"count": n})
}

// handleNotRoutable answers the shared typed refusal for operations that
// do not route across partitions (correlation and the diagnosis
// endpoints): 501 with the operation's machine-readable reason.
func (s *Server) handleNotRoutable(w http.ResponseWriter, r *http.Request, err *ErrNotRoutable) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	writeJSON(w, http.StatusNotImplemented, map[string]string{
		"error":  err.Error(),
		"reason": err.Reason,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st, err := s.co.Stats(r.Context(), index)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// writeError maps coordinator errors to statuses consistent with a single
// node's API: client errors keep their 4xx (a scattered request fails like a
// direct one), per-node statuses forward, and a dead or breaker-rejected
// partition is the coordinator's own failure — 503/502, temporary under the
// client's retry classification.
func writeError(w http.ResponseWriter, err error) {
	var he *store.HTTPError
	var nr *ErrNotRoutable
	switch {
	case errors.As(err, &nr):
		writeJSON(w, http.StatusNotImplemented, map[string]string{
			"error": err.Error(), "reason": nr.Reason,
		})
	case errors.Is(err, store.ErrCursorExpired):
		httpError(w, http.StatusGone, "%v", err)
	case store.IsBadRequest(err):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrIndexNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrNodeUnavailable):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.As(err, &he):
		httpError(w, he.Status, "%v", err)
	default:
		httpError(w, http.StatusBadGateway, "%v", err)
	}
}

// writeJSON encodes before the status goes out, so a value JSON cannot carry
// is a typed 500 instead of the promised status over an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
