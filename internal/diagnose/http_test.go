package diagnose_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/dio-go/internal/apps/fluentbit"
	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/diagnose"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// newDiagnosisServer traces both Fluent Bit versions into one store and
// serves it with the diagnosis endpoints installed.
func newDiagnosisServer(t *testing.T) *httptest.Server {
	t.Helper()
	backend, err := store.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		session string
		version fluentbit.Version
	}{{"buggy", fluentbit.VersionBuggy}, {"fixed", fluentbit.VersionFixed}} {
		k := kernel.New(kernel.Config{Clock: clock.NewVirtualTicking(0, time.Microsecond)})
		tracer, err := core.NewTracer(core.Config{
			SessionName: v.session, Index: "events", Backend: backend,
			AutoCorrelate: true, FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Start(k); err != nil {
			t.Fatal(err)
		}
		if _, err := fluentbit.RunScenario(k, "/var/log", v.version); err != nil {
			t.Fatal(err)
		}
		if _, err := tracer.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	server := store.NewServer(backend)
	diagnose.Install(server)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteDiagnoseDFGAndDiff(t *testing.T) {
	srv := newDiagnosisServer(t)
	dc := diagnose.NewClient(store.NewClient(srv.URL))
	ctx := context.Background()

	rep, err := dc.Diagnose(ctx, "events", "buggy")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Critical() || rep.Session != "buggy" {
		t.Fatalf("remote report = %s", rep)
	}
	var stale bool
	for _, f := range rep.Findings {
		stale = stale || (f.Rule == "stale-offset-read" && f.Severity == diagnose.SeverityCritical)
	}
	if !stale {
		t.Fatalf("stale-offset finding lost over the wire: %+v", rep.Findings)
	}

	g, err := dc.DFG(ctx, "events", "buggy")
	if err != nil {
		t.Fatal(err)
	}
	if g.Events == 0 || len(g.Procs) == 0 {
		t.Fatalf("remote dfg = %+v", g)
	}

	res, err := dc.Diff(ctx, "events", "buggy", "fixed")
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != diagnose.ClassImprovement || res.HealthDelta <= 0 {
		t.Fatalf("remote diff = %s", res)
	}
}

// postRaw issues a POST and returns status and body.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestDiagnosisRoutesServeV1AndLegacyIdentically(t *testing.T) {
	srv := newDiagnosisServer(t)
	for _, route := range []string{
		"/events/_diagnose?session=buggy",
		"/events/_dfg?session=buggy",
		"/events/_diff?a=buggy&b=fixed",
	} {
		legacyCode, legacyBody := postRaw(t, srv.URL+route, nil)
		v1Code, v1Body := postRaw(t, srv.URL+"/v1"+route, nil)
		if legacyCode != http.StatusOK || v1Code != http.StatusOK {
			t.Fatalf("%s: status legacy=%d v1=%d", route, legacyCode, v1Code)
		}
		if !bytes.Equal(legacyBody, v1Body) {
			t.Fatalf("%s: v1 and legacy bodies differ:\n%s\nvs\n%s", route, legacyBody, v1Body)
		}
	}
}

func TestDiagnosisRouteErrors(t *testing.T) {
	srv := newDiagnosisServer(t)
	if code, _ := postRaw(t, srv.URL+"/events/_diagnose", nil); code != http.StatusBadRequest {
		t.Fatalf("missing session -> %d", code)
	}
	if code, _ := postRaw(t, srv.URL+"/events/_diff?a=buggy", nil); code != http.StatusBadRequest {
		t.Fatalf("missing b -> %d", code)
	}
	if code, _ := postRaw(t, srv.URL+"/events/_diagnose?session=x", []byte("{bad")); code != http.StatusBadRequest {
		t.Fatalf("bad params body -> %d", code)
	}
	resp, err := http.Get(srv.URL + "/events/_diagnose?session=buggy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET -> %d", resp.StatusCode)
	}

	dc := diagnose.NewClient(store.NewClient(srv.URL))
	_, err = dc.Diagnose(context.Background(), "missing", "s")
	var he *store.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("missing index error = %v", err)
	}
}

func TestDiagnoseParamsBodyIsHonored(t *testing.T) {
	srv := newDiagnosisServer(t)
	// An absurdly high churn threshold must suppress churn findings.
	code, body := postRaw(t, srv.URL+"/v1/events/_diagnose?session=buggy",
		[]byte(`{"dfg":{"churn_min_opens":1000000}}`))
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	if strings.Contains(string(body), "open-close-churn") {
		t.Fatalf("params body ignored, churn still reported:\n%s", body)
	}
}

// TestDiagnosisRoutesBoundPageSize: a page is one search, read under the
// store's read locks, so each route serves page_size 10 000 and answers
// 10 001 with a 400 naming the bound, before it reads anything.
func TestDiagnosisRoutesBoundPageSize(t *testing.T) {
	srv := newDiagnosisServer(t)
	for _, route := range []string{
		"/events/_diagnose?session=buggy",
		"/events/_dfg?session=buggy",
		"/events/_diff?a=buggy&b=fixed",
	} {
		if code, body := postRaw(t, srv.URL+route, []byte(`{"page_size":10000}`)); code != http.StatusOK {
			t.Fatalf("%s page_size 10000 -> %d (%s)", route, code, body)
		}
		code, body := postRaw(t, srv.URL+route, []byte(`{"page_size":10001}`))
		if code != http.StatusBadRequest || !strings.Contains(string(body), "10000") {
			t.Fatalf("%s page_size 10001 -> %d (%s), want 400 naming the bound", route, code, body)
		}
	}
}
