package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// HTTPError is a non-2xx response from the backend server. Its status is
// the one StatusOf reads, so a remote failure classifies as the node's own
// error does in process. A Retry-After header is surfaced as a backoff hint.
type HTTPError struct {
	Method     string
	Path       string
	Status     int
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.Method, e.Path, e.Status, e.Message)
}

// RetryAfterHint returns the server-provided backoff, if any.
func (e *HTTPError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Unwrap maps the statuses that name one error each back to their sentinels
// so remote callers can errors.Is against the same values local callers
// see: 404 is the server-side mapping of ErrIndexNotFound (and of nothing
// else: an unknown route is a 400), 410 Gone that of ErrCursorExpired, 403
// that of ErrNotFollower.
func (e *HTTPError) Unwrap() error {
	switch e.Status {
	case http.StatusNotFound:
		return ErrIndexNotFound
	case http.StatusGone:
		return ErrCursorExpired
	case http.StatusForbidden:
		return ErrNotFollower
	}
	return nil
}

// maxErrorBody caps how much of an error response is read: enough for any
// real error message, bounded against a misbehaving server.
const maxErrorBody = 8 * 1024

// Client is the HTTP counterpart of *Store: the tracer uses it to ship
// events to a backend running on a separate server, keeping analysis load
// off the traced machine (§II-F). It implements Backend; every canonical
// method takes a context first, so the retrying shipper can enforce
// per-attempt deadlines directly.
type Client struct {
	base string
	hc   *http.Client
	// reqTimeout bounds each request via context when the caller supplies
	// none; distinct from the transport-level safety-net timeout.
	reqTimeout time.Duration
}

// frameBufPool recycles binary frame buffers for BulkEvents.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16*1024)
	return &b
}}

// pooledFrameBody is the request body of a binary bulk: it owns the pooled
// frame buffer and recycles it in Close. http.Client.Do can return while the
// transport's write goroutine is still reading the body — exactly the
// error-response paths, where the server replies before consuming it — so
// recycling right after Do would let a concurrent BulkEvents encode over
// bytes an aborted write is still reading. The transport guarantees it
// closes the request body once it is done with it (including on errors),
// which makes Close the only race-free recycle point.
type pooledFrameBody struct {
	r    *bytes.Reader
	bp   *[]byte
	once sync.Once
}

func (b *pooledFrameBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *pooledFrameBody) Close() error {
	b.once.Do(func() {
		frameBufPool.Put(b.bp)
		b.bp = nil
	})
	return nil
}

// NewClient creates a client for the server at base (e.g.
// "http://127.0.0.1:9200") with connection-reuse-friendly transport limits
// and a 10s default per-request timeout.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 32,
		MaxConnsPerHost:     64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{
			Transport: tr,
			// Transport-level safety net; per-request deadlines come from
			// contexts and are usually much tighter.
			Timeout: 60 * time.Second,
		},
		reqTimeout: 10 * time.Second,
	}
}

// SetRequestTimeout overrides the default per-request deadline (0 disables
// the client-imposed deadline; callers may still pass their own contexts).
func (c *Client) SetRequestTimeout(d time.Duration) { c.reqTimeout = d }

// BulkEvents ships events as one binary event frame and returns the
// server's answer as given: a rejection is an *HTTPError carrying its status,
// for the resilience ladder to classify, and never a second request in
// another encoding.
func (c *Client) BulkEvents(ctx context.Context, index string, events []event.Event) error {
	if len(events) == 0 {
		return nil
	}
	bp := frameBufPool.Get().(*[]byte)
	frame := event.EncodeBatch((*bp)[:0], events)
	*bp = frame[:0] // keep the (possibly grown) backing array with the pool entry
	body := &pooledFrameBody{r: bytes.NewReader(frame), bp: bp}
	return c.doReader(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_bulk",
		event.ContentTypeBinaryV2, body, int64(len(frame)), nil)
}

// BinaryDisabled always reports false: the client speaks the binary frame
// only. It is kept because benchmark/ still calls it.
func (c *Client) BinaryDisabled() bool { return false }

// Search runs req against the named index as a JSON answer. It is kept
// because benchmark/ still calls it; SearchEvents is the typed read.
func (c *Client) Search(ctx context.Context, index string, req SearchRequest) (SearchResponse, error) {
	body, err := encodeSearch(req)
	if err != nil {
		return SearchResponse{}, err
	}
	var resp SearchResponse
	err = c.do(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_search", body, &resp)
	return resp, err
}

// SearchEvents runs req against the named index, asking for the typed hit
// body: the hits arrive as the events the server holds, bit for bit.
func (c *Client) SearchEvents(ctx context.Context, index string, req SearchRequest) (EventsResult, error) {
	body, err := encodeSearch(req)
	if err != nil {
		return EventsResult{}, err
	}
	var b hitsBody
	err = c.do(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_search", body, &b)
	return EventsResult{Total: b.Total, Hits: b.Hits, Aggs: b.Aggs, NextAfter: b.NextAfter}, err
}

// encodeSearch is req's request body. A cursor's gid is checked first, by the
// rule the server reads it with (cursorGID): JSON cannot carry a float gid
// as a float.
func encodeSearch(req SearchRequest) ([]byte, error) {
	if len(req.SearchAfter) > 0 {
		if _, err := cursorGID(req.SearchAfter); err != nil {
			return nil, err
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode search: %w", err)
	}
	return body, nil
}

// Count counts documents matching q.
func (c *Client) Count(ctx context.Context, index string, q Query) (int, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return 0, fmt.Errorf("encode query: %w", err)
	}
	var out struct {
		Count int `json:"count"`
	}
	err = c.do(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_count", body, &out)
	return out.Count, err
}

// Correlate triggers the server-side file-path correlation algorithm.
func (c *Client) Correlate(ctx context.Context, index, session string) (CorrelationResult, error) {
	path := "/" + url.PathEscape(index) + "/_correlate"
	if session != "" {
		path += "?session=" + url.QueryEscape(session)
	}
	var res CorrelationResult
	err := c.do(ctx, http.MethodPost, path, nil, &res)
	return res, err
}

// NamePaths asks the node to name its rows of index with rec (POST _paths):
// a coordinator's correlation broadcast.
func (c *Client) NamePaths(ctx context.Context, index string, rec event.PathsRecord) (CorrelationResult, error) {
	var res CorrelationResult
	err := c.DoJSON(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_paths", rec, &res)
	return res, err
}

// Scatter runs one partition's share of a cluster search (POST _scatter):
// mergeable candidates and combined aggregation partials, which the
// coordinator reduces with the same merge functions the node used across its
// own shards.
func (c *Client) Scatter(ctx context.Context, index string, sreq ScatterRequest) (ScatterResponse, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return ScatterResponse{}, fmt.Errorf("encode scatter: %w", err)
	}
	var b hitsBody
	err = c.do(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_scatter", body, &b)
	if err == nil && len(b.Gids) != len(b.Hits) {
		err = fmt.Errorf("%w: %d gids for %d hits", ErrBadHitsBody, len(b.Gids), len(b.Hits))
	}
	return ScatterResponse{Total: b.Total, Gids: b.Gids, Hits: b.Hits, Partials: b.Partials}, err
}

// BulkFrame posts an already-encoded binary event frame verbatim — the
// coordinator's no-re-encode forward path for a single-partition topology.
func (c *Client) BulkFrame(ctx context.Context, index string, frame []byte) error {
	return c.doBody(ctx, http.MethodPost, "/"+url.PathEscape(index)+"/_bulk",
		event.ContentTypeBinaryV2, frame, nil)
}

// Stats fetches the named index's doc/shard/row counts (GET _stats).
func (c *Client) Stats(ctx context.Context, index string) (IndexStats, error) {
	var st IndexStats
	err := c.do(ctx, http.MethodGet, "/"+url.PathEscape(index)+"/_stats", nil, &st)
	return st, err
}

// DeleteIndex drops the named index.
func (c *Client) DeleteIndex(ctx context.Context, index string) error {
	return c.do(ctx, http.MethodDelete, "/"+url.PathEscape(index), nil, nil)
}

// ListIndices lists index names.
func (c *Client) ListIndices(ctx context.Context) ([]string, error) {
	var out []string
	err := c.do(ctx, http.MethodGet, "/_cat/indices", nil, &out)
	return out, err
}

// Health probes the server's GET /_health endpoint; nil means the backend
// is reachable and serving.
func (c *Client) Health() error {
	return c.do(context.Background(), http.MethodGet, "/_health", nil, nil)
}

// HealthStatus fetches the server's full health report: role, per-index
// durability freshness, and replication lag. The failover client dispatches
// on Role to find the live primary.
func (c *Client) HealthStatus(ctx context.Context) (HealthStatus, error) {
	var h HealthStatus
	err := c.do(ctx, http.MethodGet, "/_health", nil, &h)
	return h, err
}

// ReplStatus fetches the node's replication position (role plus per-index
// sequences); the shipper resyncs from it after a mismatch or reconnect.
func (c *Client) ReplStatus(ctx context.Context) (ReplState, error) {
	var st ReplState
	err := c.do(ctx, http.MethodGet, "/_repl/status", nil, &st)
	return st, err
}

// ReplApply pushes consecutive replication frames starting at sequence from
// to a follower and returns the follower's new applied sequence. A sequence
// mismatch surfaces as a 409 *HTTPError whose body carried the follower's
// applied position; callers resync via ReplStatus rather than retrying.
func (c *Client) ReplApply(ctx context.Context, index string, from int64, frames []ReplFrame) (int64, error) {
	body, err := json.Marshal(replApplyRequest{Index: index, From: from, Frames: frames})
	if err != nil {
		return 0, fmt.Errorf("encode repl apply: %w", err)
	}
	var out struct {
		Applied int64 `json:"applied"`
	}
	err = c.do(ctx, http.MethodPost, "/_repl/apply", body, &out)
	return out.Applied, err
}

// ReplBootstrap ships a full-state snapshot of one index, aligned to primary
// sequence snap.Seq, replacing whatever the follower held.
func (c *Client) ReplBootstrap(ctx context.Context, index string, snap ReplSnapshot) error {
	body, err := json.Marshal(replBootstrapRequest{Index: index, ReplSnapshot: snap})
	if err != nil {
		return fmt.Errorf("encode repl bootstrap: %w", err)
	}
	return c.do(ctx, http.MethodPost, "/_repl/bootstrap", body, nil)
}

// Promote asks the node to become primary (POST /_repl/promote): manual
// failover, or the failover client acting on primary loss.
func (c *Client) Promote(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/_repl/promote", nil, nil)
}

// Base returns the server URL this client targets (failover diagnostics).
func (c *Client) Base() string { return c.base }

// DoJSON issues one JSON-in/JSON-out request through the client's wire
// plumbing (per-request deadline, HTTPError mapping) against
// an arbitrary path — the hook extension packages use to speak routes the
// core client does not know (the diagnosis endpoints, for one) without
// re-implementing transport concerns. A nil body sends no payload; a nil
// out discards the response.
func (c *Client) DoJSON(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
	}
	return c.do(ctx, method, path, raw, out)
}

const contentTypeJSON = "application/json"

func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	return c.doBody(ctx, method, path, contentTypeJSON, body, out)
}

// doBody issues one request with an explicit content type, streaming body
// without copying it. The returned error is an *HTTPError for non-2xx
// responses, so callers can dispatch on status (content negotiation, retry
// classification).
func (c *Client) doBody(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	return c.doReader(ctx, method, path, contentType, rdr, int64(len(body)), out)
}

// doReader is doBody over an arbitrary reader of known size. An out that is a
// *hitsBody asks for, and decodes, the typed hit body instead of JSON. A body that
// implements io.Closer is adopted as the request body and closed by the
// transport when it has finished reading it (the hook pooledFrameBody uses
// to recycle its buffer safely); such bodies are not replayable, so the
// transport cannot transparently retry on a stale connection — the
// resilience shipper above handles those retries.
func (c *Client) doReader(ctx context.Context, method, path, contentType string, body io.Reader, size int64, out any) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		if cl, ok := body.(io.Closer); ok {
			cl.Close()
		}
		return fmt.Errorf("new request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
		if req.ContentLength == 0 && size > 0 {
			// NewRequest only derives the length from the stdlib reader
			// types; custom bodies would fall back to chunked encoding.
			req.ContentLength = size
		}
	}
	typed, _ := out.(*hitsBody)
	if typed != nil {
		req.Header.Set("Accept", event.ContentTypeBinaryV2)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	// Fully drain the body on every path so the transport can reuse the
	// connection instead of tearing it down.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, maxErrorBody)).Decode(&e)
		return &HTTPError{
			Method:     method,
			Path:       path,
			Status:     resp.StatusCode,
			Message:    e.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	if typed != nil {
		return typed.readResponse(resp)
	}
	if err := decodeJSON(resp.Body, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header in delay-seconds form (the
// HTTP-date form is ignored; a backoff hint is best-effort).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
