package diagnose

import (
	"context"
	"encoding/json"
	"errors"
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
// Each accepts an optional Params JSON body. The routes join the server's
// one route table and answer through the server's own writers; the engine
// reads the served backend, and its telemetry lands in that backend's
// registry, which GET /metrics exposes. The engine lives here rather than in
// the store package so the store stays diagnosis-agnostic; the server only
// grows a generic op hook.
func Install(srv *store.Server) *Engine {
	b := srv.Backend()
	e := NewEngine(DefaultRegistry(), WithTelemetry(b.Telemetry()))
	srv.HandleOp("_diagnose", func(r *http.Request, index string) (any, error) {
		session, p, err := sessionParams(r, "session")
		if err != nil {
			return nil, err
		}
		return e.RunParams(r.Context(), b, index, session, p)
	})
	srv.HandleOp("_dfg", func(r *http.Request, index string) (any, error) {
		session, p, err := sessionParams(r, "session")
		if err != nil {
			return nil, err
		}
		return BuildDFG(r.Context(), b, index, session, p.withDefaults().PageSize)
	})
	srv.HandleOp("_diff", func(r *http.Request, index string) (any, error) {
		a, p, err := sessionParams(r, "a")
		if err != nil {
			return nil, err
		}
		sessionB := r.URL.Query().Get("b")
		if sessionB == "" {
			return nil, store.BadRequest(errors.New("missing b session parameter"))
		}
		return e.DiffSessions(r.Context(), b, index, a, sessionB, p)
	})
	return e
}

// maxPageSize bounds Params.PageSize on the HTTP routes. A page is one
// search, and on an in-process store the pass reads it under the store's
// read locks, so a page of the whole session would hold every writer off
// for the whole pass.
const maxPageSize = 10_000

// sessionParams reads the named query parameter and the optional Params
// body; either one invalid, or a page_size past maxPageSize, is a
// store.BadRequest.
func sessionParams(r *http.Request, key string) (string, Params, error) {
	session := r.URL.Query().Get(key)
	if session == "" {
		return "", Params{}, store.BadRequest(fmt.Errorf("missing %s session parameter", key))
	}
	var p Params
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			return "", Params{}, store.BadRequest(fmt.Errorf("bad params body: %w", err))
		}
	}
	if p.PageSize > maxPageSize {
		return "", Params{}, store.BadRequest(fmt.Errorf("page_size %d exceeds %d", p.PageSize, maxPageSize))
	}
	return session, p, nil
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
