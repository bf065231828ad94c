package store

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// ndjsonBody renders events as the body DecodeBulkNDJSON parses back into
// them: per event an action line, then its Document view.
func ndjsonBody(tb testing.TB, events []event.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range events {
		buf.WriteString("{\"index\":{}}\n")
		if err := enc.Encode(EventToDoc(&events[i])); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func postBulk(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestBulkNDJSONExactNanoseconds is the regression test for the float64
// coercion the map-based ingest had: 1687859999123456789 is not
// representable as a float64 (the ulp at 1.6e18 is 256), so it used to be
// stored as ...456768. Posted as NDJSON it must now read back exactly, with
// every other field of the event intact.
func TestBulkNDJSONExactNanoseconds(t *testing.T) {
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)

	want := eventFixture()
	want[0].TimeEnterNS, want[0].TimeExitNS = 1687859999123456789, 1687859999123456799
	want[0].FileTag.BirthNS = 1687859999123456701
	if code, body := postBulk(t, srv.URL+"/run/_bulk", ndjsonBody(t, want)); code != http.StatusOK {
		t.Fatalf("ndjson bulk: %d %s", code, body)
	}
	got, err := st.SearchEvents(context.Background(), "run", SearchRequest{Query: MatchAll(), Size: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hits, want) {
		t.Fatalf("NDJSON ingest changed the events:\n got %+v\nwant %+v", got.Hits, want)
	}

	// The curl shape: no exit time, a duration instead.
	body := "{\"index\":{}}\n{\"session\":\"c\",\"syscall\":\"write\",\"time_enter_ns\":1000,\"duration_ns\":500}\n"
	if code, msg := postBulk(t, srv.URL+"/curl/_bulk", []byte(body)); code != http.StatusOK {
		t.Fatalf("curl-shaped bulk: %d %s", code, msg)
	}
	got, _ = st.SearchEvents(context.Background(), "curl", SearchRequest{Query: MatchAll()})
	if len(got.Hits) != 1 || got.Hits[0].TimeExitNS != 1500 {
		t.Fatalf("duration_ns did not become an exit time: %+v", got.Hits)
	}
}

// ndjsonRejections is one body per rule of the strict edge decoder, with the
// field (or line) the 400 must name.
var ndjsonRejections = []struct{ name, body, names string }{
	{"unknown key", `{"index":{}}` + "\n" + `{"session":"s","custom_note":"x"}`, "custom_note"},
	{"string where integer expected", `{"index":{}}` + "\n" + `{"time_enter_ns":"1687859999123456789"}`, "time_enter_ns"},
	{"non-integral number in an integer field", `{"index":{}}` + "\n" + `{"ret_val":1.5}`, "ret_val"},
	{"integer out of the field's range", `{"index":{}}` + "\n" + `{"pid":4294967296}`, "pid"},
	{"number where string expected", `{"index":{}}` + "\n" + `{"syscall":7}`, "syscall"},
	{"unparseable file_tag", `{"index":{}}` + "\n" + `{"file_tag":"dev1:ino7"}`, "file_tag"},
	{"over-long string", `{"index":{}}` + "\n" + `{"arg_path":"` + strings.Repeat("x", 1<<16) + `"}`, "arg_path"},
	{"line past the scanner's limit", strings.Repeat("x", 8<<20+1), "token too long"},
	{"dangling action line", `{"index":{}}` + "\n" + `{"session":"s"}` + "\n" + `{"index":{}}`, "line 3"},
	{"document is not an object", `{"index":{}}` + "\n" + `not-json`, "line 2"},
}

func TestBulkNDJSONRejections(t *testing.T) {
	st := memStore(t)
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	for _, tc := range ndjsonRejections {
		code, body := postBulk(t, srv.URL+"/run/_bulk", []byte(tc.body))
		if code != http.StatusBadRequest || !strings.Contains(body, tc.names) {
			t.Errorf("%s: got %d %s; want 400 naming %q", tc.name, code, body, tc.names)
		}
	}
	// A rejected body ingests nothing, not even its valid leading documents.
	if _, ok := st.GetIndex("run"); ok {
		t.Error("a rejected bulk created the index")
	}
}

// FuzzBulkNDJSON: any body either fails to decode or yields events that
// survive their own NDJSON rendering — decode(ndjson(EventToDoc(e))) == e —
// and the journal's frame codec, so what the edge accepts is exactly what
// recovery will rebuild.
func FuzzBulkNDJSON(f *testing.F) {
	shaped := []event.Event{{
		Session: "cold", Syscall: "pwrite64", Class: "file",
		ProcName: "app", ThreadName: "w3", PID: 100, TID: 104, RetVal: 4096, FD: 5, Count: 4096,
		TimeEnterNS: 1687859999123456789, TimeExitNS: 1687859999123457489,
	}}
	f.Add(ndjsonBody(f, shaped))
	f.Add(ndjsonBody(f, eventFixture()))
	f.Add(event.EncodeBatch(nil, shaped)) // a frame mistaken for NDJSON
	for _, tc := range ndjsonRejections {
		if len(tc.body) < 1<<20 { // multi-megabyte seeds stall the mutator
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := DecodeBulkNDJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := DecodeBulkNDJSON(bytes.NewReader(ndjsonBody(t, events)))
		if err != nil {
			t.Fatalf("accepted events did not re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("NDJSON round trip changed the events:\n got %+v\nwant %+v", again, events)
		}
		framed, err := event.DecodeBatch(event.EncodeBatch(nil, events), nil)
		if err != nil || !reflect.DeepEqual(framed, events) {
			t.Fatalf("frame round trip changed the events (err %v):\n got %+v\nwant %+v", err, framed, events)
		}
	})
}
