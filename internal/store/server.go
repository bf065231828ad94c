package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
	"github.com/dsrhaslab/dio-go/internal/telemetry"
)

// Backend is the interface the tracer and visualizer program against: it is
// satisfied both by the in-process *Store and by *Client talking to a
// remote Server, mirroring the paper's deployment choice of co-located or
// dedicated analysis servers (§II-F). All methods are context-first: the
// context carries cancellation from the caller (an HTTP request, a per-
// attempt delivery deadline) into shard fan-out or the wire request.
type Backend interface {
	EventBackend
	// SearchEvents is the search; Search is the same answer with each hit
	// rendered as a Document, for callers that write JSON.
	SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error)
	Search(ctx context.Context, index string, req SearchRequest) (SearchResponse, error)
	Count(ctx context.Context, index string, q Query) (int, error)
	Correlate(ctx context.Context, index, session string) (CorrelationResult, error)
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Client)(nil)
)

// Correlate runs the file-path correlation algorithm on the named index,
// recording the run in the store's telemetry registry. It is the store's one
// update: on a durable store the pass journals its tag→path dictionary as a
// single paths record.
func (s *Store) Correlate(ctx context.Context, index, session string) (CorrelationResult, error) {
	// Correlation fills in file_path on stored rows — a mutation, so a
	// follower rejects it like any direct write.
	if s.Role() == RoleFollower {
		return CorrelationResult{}, ErrReadOnlyFollower
	}
	ix, err := s.lookup(index)
	if err != nil {
		return CorrelationResult{}, err
	}
	// The pass counts and names the rows in shard memory; with
	// retention-evicted cold rows present its accounting would cover a subset
	// and silently skip the rest, so it is refused up front (the typed 409
	// path, DESIGN.md §15).
	if ix.coldRows.Load() > 0 {
		return CorrelationResult{}, ErrUpdateBeyondRetention
	}
	var res CorrelationResult
	s.tm.corrRuns.Inc()
	observeNS(s.tm.corrNS, func() {
		res, err = correlateFilePaths(ctx, ix, session, &s.tm)
	})
	s.tm.corrTags.Add(uint64(res.TagsResolved))
	s.tm.corrUpd.Add(uint64(res.EventsUpdated))
	s.tm.corrUnres.Add(uint64(res.EventsUnresolved))
	return res, err
}

// Server exposes the store over HTTP with an Elasticsearch-flavoured API.
// Every route is mounted twice: under the versioned /v1/ prefix (the
// canonical surface) and unprefixed (the legacy alias older clients still
// speak):
//
//	POST   /v1/{index}/_bulk       events, as a binary frame or NDJSON action/document pairs
//	POST   /v1/{index}/_search     SearchRequest JSON body; JSON answer, or typed hits by Accept
//	POST   /v1/{index}/_count      optional Query JSON body
//	POST   /v1/{index}/_correlate  ?session=NAME
//	GET    /v1/{index}/_stats      doc and shard counts
//	GET    /v1/_cat/indices        list index names
//	GET    /v1/_health             liveness probe for clients and breakers
//	GET    /v1/metrics             Prometheus-style text exposition
//	DELETE /v1/{index}             drop an index
//
// Request contexts propagate into the store, so a client that disconnects
// mid-search stops the shard fan-out. Known alias limitation: an index
// literally named "v1" is reachable only through the versioned prefix
// (/v1/v1/_search), since the unprefixed path space cedes /v1/ to it.
type Server struct {
	store *Store
	mux   *http.ServeMux

	mu    sync.Mutex
	extra []*telemetry.Registry
	// ops are extension routes for /{index}/_op paths the core server does
	// not own, registered by packages layered above the store (the
	// diagnosis engine mounts _diagnose/_dfg/_diff here) so the store
	// stays free of upward dependencies. Registered ops ride the dual
	// /v1+legacy mounting like every built-in route.
	ops map[string]OpHandler
}

// OpHandler serves one registered /{index}/_op route.
type OpHandler func(w http.ResponseWriter, r *http.Request, index string)

// HandleOp registers h for POST/GET /{index}/op (and /v1/{index}/op).
// Built-in operations cannot be overridden; registration of a duplicate
// or built-in name panics, as route wiring is a programming error.
func (s *Server) HandleOp(op string, h OpHandler) {
	switch op {
	case "_bulk", "_search", "_scatter", "_count", "_correlate", "_stats":
		panic(fmt.Sprintf("store: HandleOp(%q) would shadow a built-in operation", op))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops == nil {
		s.ops = make(map[string]OpHandler)
	}
	if _, dup := s.ops[op]; dup {
		panic(fmt.Sprintf("store: HandleOp(%q) registered twice", op))
	}
	s.ops[op] = h
}

// Store returns the wrapped store, for extension packages that serve
// additional routes over the same state.
func (s *Server) Store() *Store { return s.store }

var _ http.Handler = (*Server)(nil)

// NewServer wraps st in an HTTP handler.
func NewServer(st *Store) *Server {
	s := &Server{store: st, mux: http.NewServeMux()}
	// One route set, mounted twice: the versioned surface strips its prefix
	// exactly once and dispatches into the same inner mux as the legacy
	// alias, so /v1/<anything> and /<anything> stay one handler set by
	// construction — and the prefix cannot nest (/v1/v1/_search reaches the
	// inner mux as /v1/_search, i.e. the index literally named "v1").
	inner := http.NewServeMux()
	inner.HandleFunc("/_cat/indices", s.handleCatIndices)
	inner.HandleFunc("/_health", s.handleHealth)
	inner.HandleFunc("/metrics", s.handleMetrics)
	inner.HandleFunc("/_repl/status", s.handleReplStatus)
	inner.HandleFunc("/_repl/apply", s.handleReplApply)
	inner.HandleFunc("/_repl/bootstrap", s.handleReplBootstrap)
	inner.HandleFunc("/_repl/promote", s.handleReplPromote)
	inner.HandleFunc("/", s.handleIndexOps)
	s.mux.Handle("/", inner)
	s.mux.Handle("/v1/", http.StripPrefix("/v1", inner))
	return s
}

// Pools for the binary bulk path (and WAL replay, which decodes the same
// frames): request-body read buffers and decoded event batches are recycled,
// so the steady-state ingest path's allocations are the interned strings
// alone. Both start at the size of the tracer's default flush; one that a
// larger bulk grew past poolKeepFlushes of those is left to the collector, so
// a single oversized request cannot pin its capacity for the process's life.
const (
	flushEvents     = 512       // the tracer's default batch
	flushBodyBytes  = 64 * 1024 // generous for that batch on the wire
	poolKeepFlushes = 8
)

var (
	serverReadPool = sync.Pool{New: func() any {
		return bytes.NewBuffer(make([]byte, 0, flushBodyBytes))
	}}
	serverEventsPool = sync.Pool{New: func() any {
		b := make([]event.Event, 0, flushEvents)
		return &b
	}}
)

// decodeEventBatch decodes a frame into a recycled batch. Placement copies the
// rows out, so the caller hands both back through putEventBatch as soon as
// the batch is placed.
func decodeEventBatch(frame []byte) (*[]event.Event, []event.Event, error) {
	bp := serverEventsPool.Get().(*[]event.Event)
	events, err := event.DecodeBatch(frame, (*bp)[:0])
	if err != nil {
		// The decoder wrote an unknown prefix of the capacity before it failed.
		putEventBatch(bp, events[:cap(events)])
		return nil, nil, err
	}
	return bp, events, nil
}

// putEventBatch recycles a batch, zeroing the events it holds first so the
// pool keeps no string of rows the store has since evicted.
func putEventBatch(bp *[]event.Event, events []event.Event) {
	if cap(events) > poolKeepFlushes*flushEvents {
		return
	}
	clear(events)
	*bp = events[:0]
	serverEventsPool.Put(bp)
}

// ExposeTelemetry attaches an additional registry to GET /metrics. A
// co-located tracer hands over its pipeline registry (ebpf, core,
// resilience stages) so one scrape covers the whole pipeline alongside the
// store's own instruments.
func (s *Server) ExposeTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.extra {
		if r == reg {
			return
		}
	}
	s.extra = append(s.extra, reg)
}

// handleMetrics serves the store registry plus every attached registry in
// the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.mu.Lock()
	regs := append([]*telemetry.Registry{s.store.Telemetry()}, s.extra...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, reg := range regs {
		reg.WriteText(w)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleCatIndices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Indices())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.store.Health())
}

// handleReplStatus reports the node's role and per-index sequence positions.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.store.ReplStatus())
}

// replApplyRequest is the POST /_repl/apply body.
type replApplyRequest struct {
	Index  string      `json:"index"`
	From   int64       `json:"from"`
	Frames []ReplFrame `json:"frames"`
}

// writeReplError maps replication errors onto statuses the shipper
// dispatches on: 403 for role mismatches (this node is not a follower), 409
// with the applied sequence for out-of-order pushes (the shipper resyncs
// instead of retrying), 500 otherwise. Both 4xx shapes are non-temporary
// under HTTPError's classification, so the resilience ladder fails fast.
func writeReplError(w http.ResponseWriter, applied int64, err error) {
	var seqErr *ReplSeqError
	switch {
	case errors.As(err, &seqErr):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "applied": applied,
		})
	case errors.Is(err, ErrNotFollower):
		httpError(w, http.StatusForbidden, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleReplApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req replApplyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad repl apply request: %v", err)
		return
	}
	applied, err := s.store.ReplApply(r.Context(), req.Index, req.From, req.Frames)
	if err != nil {
		writeReplError(w, applied, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"applied": applied})
}

// replBootstrapRequest is the POST /_repl/bootstrap body: a full-state
// snapshot of one index, aligned to primary sequence seq. The embedded
// ReplSnapshot flattens into the JSON object, so pre-tiered senders (no
// base/floor keys) decode as a Base==0 snapshot and take the legacy path.
type replBootstrapRequest struct {
	Index string `json:"index"`
	ReplSnapshot
}

func (s *Server) handleReplBootstrap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req replBootstrapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad repl bootstrap request: %v", err)
		return
	}
	if err := s.store.ReplBootstrap(r.Context(), req.Index, req.ReplSnapshot); err != nil {
		writeReplError(w, 0, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"applied": req.Seq})
}

// handleReplPromote flips a follower to primary (idempotent on a primary).
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.store.Promote()
	writeJSON(w, http.StatusOK, map[string]string{"role": s.store.Role().String()})
}

func (s *Server) handleIndexOps(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] != "" && r.Method == http.MethodDelete:
		if s.store.Role() == RoleFollower {
			// Same 409 as every other client write: a follower's replica may
			// only be dropped by its own bootstrap, never over the wire.
			httpError(w, http.StatusConflict, "delete index: %v", ErrReadOnlyFollower)
			return
		}
		s.store.DeleteIndex(parts[0])
		writeJSON(w, http.StatusOK, map[string]bool{"acknowledged": true})
	case len(parts) == 2:
		index, op := parts[0], parts[1]
		switch op {
		case "_bulk":
			s.handleBulk(w, r, index)
		case "_search":
			s.handleSearch(w, r, index)
		case "_scatter":
			s.handleScatter(w, r, index)
		case "_count":
			s.handleCount(w, r, index)
		case "_correlate":
			s.handleCorrelate(w, r, index)
		case "_stats":
			s.handleStats(w, r, index)
		default:
			s.mu.Lock()
			h := s.ops[op]
			s.mu.Unlock()
			if h != nil {
				h(w, r, index)
				return
			}
			httpError(w, http.StatusNotFound, "unknown operation %q", op)
		}
	default:
		httpError(w, http.StatusNotFound, "not found")
	}
}

// handleBulk ingests a batch of events in one of two encodings selected by
// Content-Type: the version-1 binary event frame, or Elasticsearch-style
// NDJSON through the strict edge decoder. Either way the store sees events.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, event.ContentTypeBinaryV1) {
		s.handleBulkBinary(w, r, index)
		return
	}
	events, err := DecodeBulkNDJSON(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bulk: %v", err)
		return
	}
	writeBulkResult(w, len(events), s.store.BulkEvents(r.Context(), index, events))
}

// writeBulkResult answers one ingested batch: the item count, or the ingest
// error's status.
func writeBulkResult(w http.ResponseWriter, items int, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]int{"items": items})
	case errors.Is(err, ErrReadOnlyFollower):
		// 409, not 5xx: retrying against this node cannot succeed, the
		// client must redirect to the primary.
		httpError(w, http.StatusConflict, "bulk: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "bulk: %v", err)
	}
}

// handleBulkBinary decodes a binary event frame into a pooled batch and
// indexes it, journaling the frame bytes verbatim.
func (s *Server) handleBulkBinary(w http.ResponseWriter, r *http.Request, index string) {
	buf := serverReadPool.Get().(*bytes.Buffer)
	buf.Reset()
	// When replication is armed the frame's buffer is surrendered to the
	// tail (cheaper than having journalApply clone it). The pool gets a
	// replacement pre-sized to the surrendered buffer's capacity, so the
	// next request reads its body without any doubling-growth reallocs —
	// the armed path costs one flat allocation per batch, not a copy.
	owned := s.store.replWantsFrames()
	defer func() {
		switch {
		case buf.Cap() > poolKeepFlushes*flushBodyBytes:
			// Dropped: the pool's New sizes the next one.
		case owned:
			serverReadPool.Put(bytes.NewBuffer(make([]byte, 0, buf.Cap())))
		default:
			serverReadPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	bp, events, err := decodeEventBatch(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, "decode frame: %v", err)
		return
	}
	ingestErr := s.store.bulkEventsFrame(r.Context(), index, buf.Bytes(), owned, events)
	putEventBatch(bp, events)
	writeBulkResult(w, len(events), ingestErr)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad search request: %v", err)
		return
	}
	res, err := s.store.SearchEvents(r.Context(), index, req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteSearchResult(w, r, res)
}

// WriteError answers a failed store operation — search, scatter, count,
// stats, correlation, and the engine routes layered above — with the status
// its error calls for. 404 means exactly "no such index", because a cluster
// coordinator reads a node's 404 as an empty partition: a node that cannot
// read a segment must fail the scattered request (500), never shrink its
// totals.
func WriteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrIndexNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case IsBadRequest(err):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrCursorExpired):
		// 410 Gone: the cursor named rows the retention horizon already
		// dropped — a permanent condition, not worth a client retry.
		httpError(w, http.StatusGone, "%v", err)
	case errors.Is(err, ErrUpdateBeyondRetention):
		// 409 with a machine-readable reason: the correlation pass would
		// account for hot rows only, silently skipping the retention-evicted
		// ones, so the API refuses instead.
		writeJSON(w, http.StatusConflict, map[string]string{
			"error":  err.Error(),
			"reason": ReasonUpdateBeyondRetention,
		})
	case errors.Is(err, ErrReadOnlyFollower):
		httpError(w, http.StatusConflict, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleScatter serves one partition's share of a cluster search: mergeable
// candidates and combined aggregation partials instead of a finished
// response, always as a typed hit body (DESIGN.md §16). Error mapping matches
// _search — a scattered request must fail exactly like a direct one.
func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var sreq ScatterRequest
	if err := json.NewDecoder(r.Body).Decode(&sreq); err != nil {
		httpError(w, http.StatusBadRequest, "bad scatter request: %v", err)
		return
	}
	resp, err := s.store.Scatter(r.Context(), index, sreq)
	if err != nil {
		WriteError(w, err)
		return
	}
	(&hitsBody{Total: resp.Total, Gids: resp.Gids, Partials: resp.Partials, Hits: resp.Hits}).write(w)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, index string) {
	var q Query
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			httpError(w, http.StatusBadRequest, "bad query: %v", err)
			return
		}
	}
	n, err := s.store.Count(r.Context(), index, q)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"count": n})
}

func (s *Server) handleCorrelate(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	res, err := s.store.Correlate(r.Context(), index, r.URL.Query().Get("session"))
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, index string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st, err := s.store.Stats(index)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
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
