package store

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error)
	Count(ctx context.Context, index string, q Query) (int, error)
	Correlate(ctx context.Context, index, session string) (CorrelationResult, error)
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Client)(nil)
)

// Correlate runs the file-path correlation algorithm on the named index —
// HarvestPaths over the store itself, then NamePaths — recording the run in
// the store's telemetry registry. It is the store's one update: on a durable
// store the pass journals its tag→path dictionary as a single paths record.
// It can run while the tracer is still indexing (the near-real-time
// pipeline) or on demand after the session completes (§II-E).
func (s *Store) Correlate(ctx context.Context, index, session string) (CorrelationResult, error) {
	// A follower refuses the pass before it searches.
	if s.Role() == RoleFollower {
		return CorrelationResult{}, ErrReadOnlyFollower
	}
	var res CorrelationResult
	var err error
	s.tm.corrRuns.Inc()
	observeNS(s.tm.corrNS, func() {
		var rec event.PathsRecord
		if rec, err = HarvestPaths(ctx, s, index, session); err == nil {
			res, err = s.NamePaths(ctx, index, rec)
		}
	})
	s.tm.corrTags.Add(uint64(res.TagsResolved))
	s.tm.corrUpd.Add(uint64(res.EventsUpdated))
	s.tm.corrUnres.Add(uint64(res.EventsUnresolved))
	return res, err
}

// Frontend is what a Server serves, whatever the backend: the reads of
// Backend plus the writes and admin reads its routes need. Every method is
// context-first, so a client that disconnects mid-request stops the work.
type Frontend interface {
	Backend
	// BulkFrame ingests one binary event frame and reports its event count.
	// It may not keep frame past the call: the server recycles the buffer.
	BulkFrame(ctx context.Context, index string, frame []byte) (int, error)
	ListIndices(ctx context.Context) ([]string, error)
	// DeleteIndex drops index; dropping one that does not exist succeeds.
	DeleteIndex(ctx context.Context, index string) error
	Telemetry() *telemetry.Registry
}

// Served is a Frontend plus the two reads whose bodies are the backend's own
// types: S answers GET /{index}/_stats and H answers GET /_health. *Store
// (a node) and a cluster coordinator both implement it.
type Served[S, H any] interface {
	Frontend
	Stats(ctx context.Context, index string) (S, error)
	Health(ctx context.Context) H
}

var _ Served[IndexStats, HealthStatus] = (*Store)(nil)

// Server is the one HTTP front end, with an Elasticsearch-flavoured API: it
// serves a node (*Store) and a cluster coordinator alike, so a client points
// at either with nothing but a base-URL change. Its one route table:
//
//	POST   /{index}/_bulk       events, as a binary frame or NDJSON action/document pairs
//	POST   /{index}/_search     SearchRequest JSON body; JSON answer, or typed hits by Accept
//	ANY    /{index}/_count      optional Query JSON body
//	POST   /{index}/_correlate  ?session=NAME
//	GET    /{index}/_stats      the backend's index stats
//	DELETE /{index}             drop an index
//	GET    /_health             liveness probe for clients and breakers
//	ANY    /_cat/indices        list index names
//	GET    /metrics             Prometheus-style text exposition
//	POST   /{index}/{op}        an op registered with HandleOp (_diagnose, _dfg, _diff)
//
// and on a node only:
//
//	POST   /{index}/_scatter    one partition's share of a cluster search
//	POST   /{index}/_paths      name the rows with a harvested paths record
//	GET    /_repl/status        role and per-index sequence positions
//	POST   /_repl/apply         a follower applies pushed WAL frames
//	POST   /_repl/bootstrap     a follower replaces an index with a primary snapshot
//	POST   /_repl/promote       a follower becomes a primary
//
// Failures answer through WriteError.
type Server struct {
	b Frontend
	// node is the served store, nil on a coordinator: the node-only routes
	// read it.
	node *Store
	mux  *http.ServeMux
	// global routes are keyed by path, ops by the _op of /{index}/_op. Both
	// are complete before the server serves its first request.
	global, ops map[string]route

	mu    sync.Mutex
	extra []*telemetry.Registry
}

// route is one entry of the route table: the method it requires ("" takes
// any) and its handler, which gets the {index} segment of an index route.
type route struct {
	method string
	serve  func(w http.ResponseWriter, r *http.Request, index string)
}

// OpHandler serves one registered /{index}/_op route: the server answers
// its value as JSON, or its error through WriteError.
type OpHandler func(r *http.Request, index string) (any, error)

// HandleOp registers h for POST /{index}/op, for
// packages layered above the store (the diagnosis engine mounts
// _diagnose/_dfg/_diff here) so the store stays free of upward dependencies.
// Call it before the server serves. Built-in operations cannot be
// overridden, even where they are not mounted; registration of a duplicate
// or built-in name panics, as route wiring is a programming error.
func (s *Server) HandleOp(op string, h OpHandler) {
	switch op {
	case "_bulk", "_search", "_scatter", "_count", "_correlate", "_paths", "_stats":
		panic(fmt.Sprintf("store: HandleOp(%q) would shadow a built-in operation", op))
	}
	if _, dup := s.ops[op]; dup {
		panic(fmt.Sprintf("store: HandleOp(%q) registered twice", op))
	}
	s.ops[op] = route{http.MethodPost, func(w http.ResponseWriter, r *http.Request, index string) {
		v, err := h(r, index)
		answer(w, v, err)
	}}
}

// Backend returns the served backend, for extension packages that serve
// additional routes over the same state.
func (s *Server) Backend() Frontend { return s.b }

// Routes lists what s serves, one "METHOD /path" per route in sorted order.
func (s *Server) Routes() []string {
	out := []string{"DELETE /{index}"}
	for path, rt := range s.global {
		out = append(out, cmp.Or(rt.method, "ANY")+" "+path)
	}
	for op, rt := range s.ops {
		out = append(out, cmp.Or(rt.method, "ANY")+" /{index}/"+op)
	}
	sort.Strings(out)
	return out
}

var _ http.Handler = (*Server)(nil)

// NewServer wraps b in an HTTP handler.
func NewServer[S, H any](b Served[S, H]) *Server {
	s := &Server{b: b, mux: http.NewServeMux()}
	s.global = map[string]route{
		"/_cat/indices": {"", func(w http.ResponseWriter, r *http.Request, _ string) {
			names, err := b.ListIndices(r.Context())
			answer(w, names, err)
		}},
		"/_health": {http.MethodGet, func(w http.ResponseWriter, r *http.Request, _ string) {
			writeJSON(w, http.StatusOK, b.Health(r.Context()))
		}},
		"/metrics": {http.MethodGet, s.handleMetrics},
	}
	s.ops = map[string]route{
		"_bulk":   {http.MethodPost, s.handleBulk},
		"_search": {http.MethodPost, s.handleSearch},
		"_count":  {"", s.handleCount},
		"_correlate": {http.MethodPost, func(w http.ResponseWriter, r *http.Request, index string) {
			res, err := b.Correlate(r.Context(), index, r.URL.Query().Get("session"))
			answer(w, res, err)
		}},
		"_stats": {http.MethodGet, func(w http.ResponseWriter, r *http.Request, index string) {
			st, err := b.Stats(r.Context(), index)
			answer(w, st, err)
		}},
	}
	if st, ok := any(b).(*Store); ok {
		s.node = st
		s.ops["_scatter"] = route{http.MethodPost, s.handleScatter}
		s.ops["_paths"] = route{http.MethodPost, s.handlePaths}
		s.global["/_repl/status"] = route{http.MethodGet, s.handleReplStatus}
		s.global["/_repl/apply"] = route{http.MethodPost, s.handleReplApply}
		s.global["/_repl/bootstrap"] = route{http.MethodPost, s.handleReplBootstrap}
		s.global["/_repl/promote"] = route{http.MethodPost, s.handleReplPromote}
	}
	s.mux.HandleFunc("/", s.dispatch)
	return s
}

// dispatch serves one request from the route table.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if rt, ok := s.global[r.URL.Path]; ok {
		serveRoute(w, r, rt, "")
		return
	}
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] != "" && r.Method == http.MethodDelete:
		answer(w, map[string]bool{"acknowledged": true}, s.b.DeleteIndex(r.Context(), parts[0]))
	case len(parts) == 2:
		rt, ok := s.ops[parts[1]]
		if !ok {
			WriteError(w, BadRequest(fmt.Errorf("unknown operation %q", parts[1])))
			return
		}
		serveRoute(w, r, rt, parts[0])
	default:
		WriteError(w, BadRequest(fmt.Errorf("no handler for %s %s", r.Method, r.URL.Path)))
	}
}

// serveRoute runs rt once the request's method passes its check.
func serveRoute(w http.ResponseWriter, r *http.Request, rt route, index string) {
	if rt.method != "" && r.Method != rt.method {
		WriteError(w, WithStatus(fmt.Errorf("%s required", rt.method), http.StatusMethodNotAllowed))
		return
	}
	rt.serve(w, r, index)
}

// Pools for the binary bulk path (and WAL replay, which decodes the same
// frames): request-body read buffers and decoded event batches are recycled,
// so the steady-state ingest path's allocations are each frame's distinct
// strings alone. Both start at the size of the tracer's default flush; one
// that a larger bulk grew past poolKeepFlushes of those is left to the
// collector, so a single oversized request cannot pin its capacity for the
// process's life.
const (
	flushEvents     = 512       // the tracer's default batch
	flushBodyBytes  = 64 * 1024 // that batch's frame is ~17 KB: room for long paths
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
// backend's own instruments.
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

// handleMetrics serves the backend's registry plus every attached registry
// in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ string) {
	s.mu.Lock()
	regs := append([]*telemetry.Registry{s.b.Telemetry()}, s.extra...)
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

// handleReplStatus reports the node's role and per-index sequence positions.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request, _ string) {
	writeJSON(w, http.StatusOK, s.node.ReplStatus())
}

// replApplyRequest is the POST /_repl/apply body.
type replApplyRequest struct {
	Index  string      `json:"index"`
	From   int64       `json:"from"`
	Frames []ReplFrame `json:"frames"`
}

// handleReplApply applies pushed frames on a follower. A failure answers
// through WriteError: 409 with the applied sequence on a mismatch, 403 on a
// node that is not a follower.
func (s *Server) handleReplApply(w http.ResponseWriter, r *http.Request, _ string) {
	var req replApplyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bad repl apply request: %w", err)))
		return
	}
	applied, err := s.node.ReplApply(r.Context(), req.Index, req.From, req.Frames)
	answer(w, map[string]int64{"applied": applied}, err)
}

// replBootstrapRequest is the POST /_repl/bootstrap body: a full-state
// snapshot of one index, aligned to primary sequence seq. The embedded
// ReplSnapshot flattens into the JSON object: the primary's manifest, its
// segment images (base64) and its live WAL's records as frames.
type replBootstrapRequest struct {
	Index string `json:"index"`
	ReplSnapshot
}

func (s *Server) handleReplBootstrap(w http.ResponseWriter, r *http.Request, _ string) {
	var req replBootstrapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bad repl bootstrap request: %w", err)))
		return
	}
	err := s.node.ReplBootstrap(r.Context(), req.Index, req.ReplSnapshot)
	answer(w, map[string]int64{"applied": req.Seq}, err)
}

// handleReplPromote flips a follower to primary (idempotent on a primary).
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request, _ string) {
	s.node.Promote()
	writeJSON(w, http.StatusOK, map[string]string{"role": s.node.Role().String()})
}

// handleBulk ingests a batch of events in one of two encodings selected by
// Content-Type: the binary event frame, or Elasticsearch-style NDJSON
// through the strict edge decoder. Either way the backend sees events. A
// body under the retired version-1 media type is refused by that name, not
// parsed as NDJSON.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request, index string) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, event.ContentTypeBinaryV2) {
		s.handleBulkBinary(w, r, index)
		return
	}
	if strings.HasPrefix(ct, event.ContentTypeRetiredV1) {
		WriteError(w, WithStatus(fmt.Errorf("bulk: %s is a retired frame format; send %s",
			event.ContentTypeRetiredV1, event.ContentTypeBinaryV2), http.StatusUnsupportedMediaType))
		return
	}
	events, err := DecodeBulkNDJSON(r.Body)
	if err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bulk: %w", err)))
		return
	}
	writeBulkResult(w, len(events), s.b.BulkEvents(r.Context(), index, events))
}

// writeBulkResult answers one ingested batch: the item count, or the ingest
// error's status. A malformed frame keeps its own message; every other
// failure names the bulk.
func writeBulkResult(w http.ResponseWriter, items int, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]int{"items": items})
	case StatusOf(err) == http.StatusBadRequest:
		WriteError(w, err)
	default:
		WriteError(w, fmt.Errorf("bulk: %w", err))
	}
}

// handleBulkBinary reads a binary event frame into a pooled buffer and hands
// it to the backend, which does not keep it.
func (s *Server) handleBulkBinary(w http.ResponseWriter, r *http.Request, index string) {
	buf := serverReadPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		// One a large bulk grew is left to the collector; the pool's New
		// sizes the next one.
		if buf.Cap() <= poolKeepFlushes*flushBodyBytes {
			serverReadPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("read body: %w", err)))
		return
	}
	items, err := s.b.BulkFrame(r.Context(), index, buf.Bytes())
	writeBulkResult(w, items, err)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, index string) {
	var req SearchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bad search request: %w", err)))
		return
	}
	res, err := s.b.SearchEvents(r.Context(), index, req)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeSearchResult(w, r, res)
}

// StatusError is an error that names its own HTTP status in StatusOf:
// WithStatus's marks (BadRequest, the server's route refusals, resilience's
// Retryable and Permanent) and a cluster coordinator's partition failures,
// which name the node's status, else 503 (circuit open) or 502.
type StatusError interface {
	error
	HTTPStatus() int
}

// WithStatus marks err as meaning code in StatusOf, in process and, through
// WriteError, on the wire; err's message and chain are unchanged. It is
// nil for a nil err.
func WithStatus(err error, code int) error {
	if err == nil {
		return nil
	}
	return &statusError{err, code}
}

// statusError is the one error type that carries a status.
type statusError struct {
	err  error
	code int
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// HTTPStatus implements StatusError.
func (e *statusError) HTTPStatus() int { return e.code }

// BadRequest marks err as a malformed request (a bad body, cursor, scatter
// envelope, frame or operation parameter): a 400, never retried.
func BadRequest(err error) error { return WithStatus(err, http.StatusBadRequest) }

// StatusOf is the one status table: the HTTP status an error means, in
// process and on the wire alike, and so the one classifier every retry,
// spill, breaker and failover decision reads (Transient). The store's own
// failures map first, then a node's status a client surfaced (HTTPError),
// then a StatusError's own status; anything else — a transport failure, a
// deadline — is a 500, and nil a 200. 404 means exactly "no such index",
// because a cluster coordinator reads a node's 404 as an empty partition: a
// node that cannot read a segment must fail the scattered request (500),
// and a route it does not serve is a 400, never a 404 that shrinks the
// totals. A replication push out of sequence is a 409 (the shipper resyncs
// instead of retrying), and one sent to a node that is not a follower a 403.
func StatusOf(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var he *HTTPError
	var se StatusError
	switch {
	case errors.Is(err, ErrIndexNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrCursorExpired):
		// 410 Gone: the cursor named rows the retention horizon already
		// dropped — a permanent condition, not worth a client retry.
		return http.StatusGone
	case errors.Is(err, ErrReadOnlyFollower), errors.As(err, new(*ReplSeqError)):
		return http.StatusConflict
	case errors.Is(err, ErrNotFollower):
		return http.StatusForbidden
	case errors.As(err, &he):
		return he.Status
	case errors.As(err, &se):
		return se.HTTPStatus()
	}
	return http.StatusInternalServerError
}

// Transient is the one rule for what is worth another try: err's status is
// 429 or 5xx. A transport failure and a deadline are 500s, so they are; a
// 4xx — a bad request, a missing index, a role or sequence mismatch — fails
// the same way again.
func Transient(err error) bool {
	code := StatusOf(err)
	return code >= 500 || code == http.StatusTooManyRequests
}

// WriteError answers a failed operation — on a node or a coordinator, a
// built-in route or one registered with HandleOp — with StatusOf(err). A
// sequence mismatch's body also carries the follower's applied sequence.
func WriteError(w http.ResponseWriter, err error) {
	body := map[string]any{"error": err.Error()}
	var seq *ReplSeqError
	if errors.As(err, &seq) {
		body["applied"] = seq.Want
	}
	writeJSON(w, StatusOf(err), body)
}

// handleScatter serves one partition's share of a cluster search: mergeable
// candidates and combined aggregation partials instead of a finished
// response, always as a typed hit body (DESIGN.md §16). Error mapping matches
// _search — a scattered request must fail exactly like a direct one.
func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request, index string) {
	var sreq ScatterRequest
	if err := decodeJSON(r.Body, &sreq); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bad scatter request: %w", err)))
		return
	}
	resp, err := s.node.Scatter(r.Context(), index, sreq)
	if err != nil {
		WriteError(w, err)
		return
	}
	(&hitsBody{Total: resp.Total, Gids: resp.Gids, Partials: resp.Partials, Hits: resp.Hits}).write(w)
}

// handlePaths serves a coordinator's correlation broadcast: the body is a
// paths record in its JSON form (the base64 of its journal payload), checked
// by event.DecodePaths, and the node names its own rows with it.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request, index string) {
	var rec event.PathsRecord
	if err := decodeJSON(r.Body, &rec); err != nil {
		WriteError(w, BadRequest(fmt.Errorf("bad paths record: %w", err)))
		return
	}
	res, err := s.node.NamePaths(r.Context(), index, rec)
	answer(w, res, err)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, index string) {
	var q Query
	if r.Body != nil && r.ContentLength != 0 {
		if err := decodeJSON(r.Body, &q); err != nil {
			WriteError(w, BadRequest(fmt.Errorf("bad query: %w", err)))
			return
		}
	}
	n, err := s.b.Count(r.Context(), index, q)
	answer(w, map[string]int{"count": n}, err)
}

// answer writes v as a 200, or err through WriteError.
func answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// decodeJSON decodes one JSON value from r into v with every number that
// lands in an interface kept as a json.Number: a term value, search_after and
// next_after then reach intOf exactly, and a 19-digit timestamp is not
// rounded to a float64 on the way. Every decode of a body that can carry one
// goes through it.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return dec.Decode(v)
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
