package diagnose

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"github.com/dsrhaslab/dio-go/internal/store"
)

// Install mounts the diagnosis engine on a store server:
//
//	POST /{index}/_diagnose?session=NAME   run the engine, return the Report
//	POST /{index}/_dfg?session=NAME        build and return the session DFG
//	POST /{index}/_diff?a=NAME&b=NAME      diff two sessions' reports + DFGs
//
// Each accepts an optional Params JSON body. The routes ride the server's
// dual mounting, so they serve under /v1/ and the legacy alias alike, and
// the engine's telemetry lands in the store registry GET /metrics exposes.
// The engine lives here rather than in the store package so the store
// stays diagnosis-agnostic; the server only grows a generic op hook.
func Install(srv *store.Server) *Engine {
	e := NewEngine(DefaultRegistry(), WithTelemetry(srv.Store().Telemetry()))
	st := srv.Store()
	srv.HandleOp("_diagnose", func(w http.ResponseWriter, r *http.Request, index string) {
		session, p, ok := decodeSessionParams(w, r, "session")
		if !ok {
			return
		}
		rep, err := e.RunParams(r.Context(), st, index, session, p)
		if err != nil {
			store.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	srv.HandleOp("_dfg", func(w http.ResponseWriter, r *http.Request, index string) {
		session, p, ok := decodeSessionParams(w, r, "session")
		if !ok {
			return
		}
		dfg, err := BuildDFG(r.Context(), st, index, session, p.withDefaults().PageSize)
		if err != nil {
			store.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, dfg)
	})
	srv.HandleOp("_diff", func(w http.ResponseWriter, r *http.Request, index string) {
		a, p, ok := decodeSessionParams(w, r, "a")
		if !ok {
			return
		}
		b := r.URL.Query().Get("b")
		if b == "" {
			httpError(w, http.StatusBadRequest, "missing b session parameter")
			return
		}
		res, err := e.DiffSessions(r.Context(), st, index, a, b, p)
		if err != nil {
			store.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	return e
}

// decodeSessionParams reads the named query parameter and the optional
// Params body, writing the error response itself when either is invalid.
func decodeSessionParams(w http.ResponseWriter, r *http.Request, key string) (string, Params, bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return "", Params{}, false
	}
	session := r.URL.Query().Get(key)
	if session == "" {
		httpError(w, http.StatusBadRequest, "missing %s session parameter", key)
		return "", Params{}, false
	}
	var p Params
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			httpError(w, http.StatusBadRequest, "bad params body: %v", err)
			return "", Params{}, false
		}
	}
	return session, p, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Client runs the diagnosis endpoints against a remote backend, mirroring
// the engine's local surface over a store.Client's wire plumbing.
type Client struct {
	c *store.Client
}

// NewClient wraps a store client.
func NewClient(c *store.Client) Client { return Client{c: c} }

// Diagnose runs the server-side engine over one session.
func (d Client) Diagnose(ctx context.Context, index, session string) (Report, error) {
	var rep Report
	err := d.c.DoJSON(ctx, http.MethodPost,
		"/"+url.PathEscape(index)+"/_diagnose?session="+url.QueryEscape(session), nil, &rep)
	return rep, err
}

// DFG fetches the server-built Directly-Follows-Graph of one session.
func (d Client) DFG(ctx context.Context, index, session string) (*DFG, error) {
	var g DFG
	err := d.c.DoJSON(ctx, http.MethodPost,
		"/"+url.PathEscape(index)+"/_dfg?session="+url.QueryEscape(session), nil, &g)
	if err != nil {
		return nil, err
	}
	return &g, nil
}

// Diff diffs two sessions server-side.
func (d Client) Diff(ctx context.Context, index, sessionA, sessionB string) (DiffResult, error) {
	var res DiffResult
	err := d.c.DoJSON(ctx, http.MethodPost,
		"/"+url.PathEscape(index)+"/_diff?a="+url.QueryEscape(sessionA)+"&b="+url.QueryEscape(sessionB),
		nil, &res)
	return res, err
}
