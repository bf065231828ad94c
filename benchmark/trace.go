package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps the traced pass's spans in memory until the run ends. A nil
// recorder is the untraced pass: every method is a no-op, so call sites need
// no branches.
type recorder struct {
	mu        sync.Mutex
	t0        time.Time
	spans     []span
	openFlush []flushRef // flush spans no server span has claimed yet, oldest first
	query     int        // the open client-side query span (one query connection)
	unlinked  int
}

// flushRef is an open flush span and the size of the frame it is sending.
type flushRef struct {
	id   int
	size int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// beginFlush opens a span around one bulk shipment (the tracer's flush, or a
// tick) and offers it as the parent of the server-side bulk span it is about
// to cause; events is the batch, whose frame length identifies the request.
func (r *recorder) beginFlush(name string, events []event.Event) int {
	id := r.begin(name, 0)
	if r != nil {
		size := int64(event.EncodedSize(events))
		r.mu.Lock()
		r.openFlush = append(r.openFlush, flushRef{id, size})
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) endFlush(id int) {
	if r == nil {
		return
	}
	r.end(id)
	r.mu.Lock()
	for i, f := range r.openFlush {
		if f.id == id {
			r.openFlush = append(r.openFlush[:i], r.openFlush[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// claimFlush links a server-side bulk request to the open flush that caused
// it. One flush per drain worker is in flight and their requests can reach
// the server in either order, so the request's Content-Length picks among
// them (frame sizes differ batch to batch); the oldest open flush is the
// fallback. A request with no open flush is counted as unlinked.
func (r *recorder) claimFlush(size int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.openFlush) == 0 {
		r.unlinked++
		return 0
	}
	pick := 0
	for i, f := range r.openFlush {
		if f.size == size {
			pick = i
			break
		}
	}
	id := r.openFlush[pick].id
	r.openFlush = append(r.openFlush[:pick], r.openFlush[pick+1:]...)
	return id
}

// beginQuery opens a client-side span for one request on the single query
// connection; the server span it causes finds it through queryParent.
func (r *recorder) beginQuery(name string, parent int) int {
	id := r.begin(name, parent)
	if r != nil {
		r.mu.Lock()
		r.query = id
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) endQuery(id int) {
	if r == nil {
		return
	}
	r.end(id)
	r.mu.Lock()
	if r.query == id {
		r.query = 0
	}
	r.mu.Unlock()
}

// abandonQuery drops a query span that was opened for a request that never
// went out; an unended span is left out of every table.
func (r *recorder) abandonQuery(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.query == id {
		r.query = 0
	}
	r.mu.Unlock()
}

func (r *recorder) queryParent() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.query == 0 {
		r.unlinked++
	}
	return r.query
}

// spanRow is one line of the per-layer share table: every span of one name.
type spanRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
	Share   float64 // self time as a share of the timed phase's wall time
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part its children cover.
func (r *recorder) selfTimes(wall time.Duration) []spanRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 && s.End > s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanRow{}
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &spanRow{Name: s.Name}
			byName[s.Name] = row
		}
		dur := s.End - s.Start
		self := dur - child[s.ID]
		if self < 0 {
			self = 0
		}
		row.Count++
		row.TotalMS += float64(dur) / 1e6
		row.SelfMS += float64(self) / 1e6
	}
	rows := make([]spanRow, 0, len(byName))
	for _, row := range byName {
		row.Share = row.SelfMS / ms(wall)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// overheadP50 is the median, in ms, of (parent span - child span) over every
// child span of the given name that found its parent: the client-side cost
// around a server request (encode, loopback HTTP, decode).
func (r *recorder) overheadP50(child string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var over []float64
	for _, s := range r.spans {
		if s.Name != child || s.Parent == 0 || s.End <= s.Start {
			continue
		}
		p := r.spans[s.Parent-1]
		over = append(over, float64((p.End-p.Start)-(s.End-s.Start))/1e6)
	}
	return quantile(over, 0.5)
}

func printShareTable(w io.Writer, workload string, rows []spanRow) {
	fmt.Fprintf(w, "\nper-layer share of wall, %s (self time = span - children; ranked)\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %7.1f%%\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.Share*100)
	}
}

// writeTo dumps the spans as JSON, the file a later tool can slice further.
func (r *recorder) writeTo(path, workload string, seed int64) error {
	r.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Unlinked int    `json:"unlinked_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.unlinked, r.spans}
	raw, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
