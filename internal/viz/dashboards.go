package viz

import (
	"context"

	"fmt"
	"strconv"

	"github.com/dsrhaslab/dio-go/internal/metrics"
	"github.com/dsrhaslab/dio-go/internal/store"
)

// AccessPatternTable builds the paper's Fig. 2 tabular visualization for a
// session: one row per syscall, ordered by time, showing the process name,
// syscall, return value, file tag, and offset.
func AccessPatternTable(b store.Backend, index, session string) (*Table, error) {
	t := &Table{
		Title:   "Session " + session + ": syscalls over time",
		Columns: []string{"time", "proc_name", "syscall", "ret_val", "file_tag (dev_no inode_no timestamp)", "offset"},
	}
	// Page with the streaming cursor instead of materializing the whole
	// session in one response: a long trace renders in bounded memory, and
	// each bounded page is a cacheable unit for re-renders.
	req := store.SearchRequest{
		Query: store.Term(store.FieldSession, session),
		Sort:  []store.SortField{{Field: store.FieldTimeEnter}},
	}
	err := store.EachEventPage(context.Background(), b, index, req, accessPatternPageSize, func(page store.EventsResult) error {
		for i := range page.Hits {
			e := &page.Hits[i]
			t.Rows = append(t.Rows, []string{
				groupDigits(e.TimeEnterNS),
				e.ProcName,
				e.Syscall,
				strconv.FormatInt(e.RetVal, 10),
				e.FileTag.String(),
				e.OffsetOrBlank(),
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("access pattern query: %w", err)
	}
	return t, nil
}

// accessPatternPageSize bounds one cursor page of the Fig. 2 table (a
// variable so tests can exercise multi-page renders cheaply).
var accessPatternPageSize = 2000

// SyscallTimeline builds the paper's Fig. 4 view: syscall counts over time,
// one series per thread name, via a date-histogram aggregation with a terms
// sub-aggregation.
func SyscallTimeline(b store.Backend, index, session string, intervalNS int64) (*TimeSeries, error) {
	resp, err := b.SearchEvents(context.Background(), index, store.SearchRequest{
		Query: store.Term(store.FieldSession, session),
		Size:  1, // aggregation-driven; hits are irrelevant
		Aggs: map[string]store.Agg{
			"timeline": {
				DateHistogram: &store.DateHistogramAgg{Field: store.FieldTimeEnter, IntervalNS: intervalNS},
				Aggs: map[string]store.Agg{
					"by_thread": {Terms: &store.TermsAgg{Field: store.FieldThreadName}},
				},
			},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("timeline query: %w", err)
	}
	buckets := resp.Aggs["timeline"].Buckets
	ts := &TimeSeries{
		Title:      "Session " + session + ": syscalls over time by thread",
		ValueLabel: "syscalls",
		Series:     make(map[string][]float64),
	}
	for _, bkt := range buckets {
		// Key is the exact decimal bucket start; KeyNum is a float64, whose
		// ulp at epoch-scale nanoseconds is 256.
		start, err := strconv.ParseInt(bkt.Key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("timeline bucket key %q: %w", bkt.Key, err)
		}
		ts.BucketStartNS = append(ts.BucketStartNS, start)
	}
	for i, bkt := range buckets {
		for _, sub := range bkt.Sub["by_thread"].Buckets {
			vals, ok := ts.Series[sub.Key]
			if !ok {
				vals = make([]float64, len(buckets))
				ts.Series[sub.Key] = vals
			}
			vals[i] = float64(sub.Count)
		}
	}
	return ts, nil
}

// SyscallHistogram renders the per-syscall counts of a session.
func SyscallHistogram(b store.Backend, index, session string) (*Histogram, error) {
	resp, err := b.SearchEvents(context.Background(), index, store.SearchRequest{
		Query: store.Term(store.FieldSession, session),
		Size:  1,
		Aggs: map[string]store.Agg{
			"by_syscall": {Terms: &store.TermsAgg{Field: store.FieldSyscall}},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("syscall histogram query: %w", err)
	}
	h := &Histogram{Title: "Session " + session + ": syscall counts"}
	for _, bkt := range resp.Aggs["by_syscall"].Buckets {
		h.Labels = append(h.Labels, bkt.Key)
		h.Values = append(h.Values, float64(bkt.Count))
	}
	return h, nil
}

// LatencySeries converts a windowed latency recording into the Fig. 3 view
// (p99 latency per time window). Latencies are reported in microseconds.
func LatencySeries(points []metrics.WindowPoint) *TimeSeries {
	ts := &TimeSeries{
		Title:      "99th percentile latency for client operations",
		ValueLabel: "p99 us",
		Series:     map[string][]float64{"p99": make([]float64, len(points))},
	}
	for i, p := range points {
		ts.BucketStartNS = append(ts.BucketStartNS, p.StartNS)
		ts.Series["p99"][i] = p.P99 / 1000.0
	}
	return ts
}

// groupDigits formats a nanosecond timestamp with thousands separators, as
// Kibana renders the raw timestamps in the paper's Fig. 2.
func groupDigits(n int64) string {
	s := strconv.FormatInt(n, 10)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}
