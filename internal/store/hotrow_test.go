package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Tests of the packed row (hotRow): what it costs, that it holds exactly the
// canonical event, and that its accessors answer as event.Event's do.

// heapFixture is row i of a fixed session: five syscalls over 16 paths on
// four threads.
func heapFixture(i int) event.Event {
	syscalls := [...]string{"openat", "read", "write", "lseek", "close"}
	path := fmt.Sprintf("/data/db/%06d.sst", i%16)
	enter := int64(1_700_000_000_000_000_000) + int64(i)*2_500
	return event.Event{
		Session: "heap", Syscall: syscalls[i%5], Class: "io", RetVal: 4096,
		FD: 3 + i%16, ArgPath: path, Count: 4096, PID: 4242, TID: 4243 + i%4,
		ProcName: "db", ThreadName: fmt.Sprintf("worker-%d", i%4),
		TimeEnterNS: enter, TimeExitNS: enter + 1_200,
		FileTag:  event.FileTag{Dev: 8, Ino: uint64(1000 + i%16), BirthNS: 77},
		FileType: "regular", Offset: int64(i%64) * 4096, HasOffset: true,
		KernelPath: path, FilePath: path,
	}
}

// TestHotRowHeapPerEvent is the row-storage bar: 2^18 rows of heapFixture in
// an in-memory index hold at most 175 live heap bytes each after a forced
// GC — the 144-byte packed row, its posting entries and the dictionaries —
// where rows stored as whole events held about 325.
func TestHotRowHeapPerEvent(t *testing.T) {
	if got := unsafe.Sizeof(hotRow{}); got != 144 {
		t.Fatalf("a packed row is %d bytes, want 144 (512 of them fill 9 pages)", got)
	}
	const rows, batchLen = 1 << 18, 1024
	batch := make([]event.Event, batchLen)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := NewIndexWithShards("heap", 4)
	for n := 0; n < rows; n += batchLen {
		for i := range batch {
			batch[i] = heapFixture(n + i)
		}
		if err := ix.AddEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / rows
	runtime.KeepAlive(ix)
	runtime.KeepAlive(batch)
	t.Logf("%.1f live heap bytes per stored event", per)
	if per > 175 {
		t.Fatalf("%d stored events hold %.1f live heap bytes each, want at most 175", rows, per)
	}
}

// checkPacked requires stored row id of sh to unpack, over an event holding
// other values in every field, to want; to answer every event.Event field
// through the Row accessor of that field's name, and DurationNS, as want
// holds it; and to answer every schema field, and a name that is none,
// through its resolved table entry as want's document view (EventToDoc)
// does: the value and its presence, the integer a range or a histogram
// reads, and the key a sort or a terms bucket reads. A field event.Event
// gains with no accessor fails it.
func checkPacked(t *testing.T, sh *shard, id int32, want *event.Event) {
	t.Helper()
	w := sh.row(id)
	got := heapFixture(int(id))
	got.ArgPath2, got.AttrName, got.Whence, got.Flags, got.Mode, got.ArgOff = "x", "y", 9, 9, 9, 9
	w.Event(&got)
	if got != *want {
		t.Fatalf("row %d unpacks to\n %+v\nwant\n %+v", id, got, *want)
	}
	ev, rv := reflect.ValueOf(got), reflect.ValueOf(w)
	for i := range ev.NumField() {
		name := ev.Type().Field(i).Name
		m := rv.MethodByName(name)
		if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
			t.Fatalf("event.Event.%s has no accessor Row.%s()", name, name)
		}
		if a, f := m.Call(nil)[0].Interface(), ev.Field(i).Interface(); a != f {
			t.Fatalf("row %d: Row.%s() is %#v, the unpacked field %#v", id, name, a, f)
		}
	}
	if w.DurationNS() != got.DurationNS() {
		t.Fatalf("row %d: Row.DurationNS() is %d, the unpacked event's %d", id, w.DurationNS(), got.DurationNS())
	}
	doc := EventToDoc(want)
	for _, name := range append(event.Fields(), "no_such_field") {
		f := fieldOf(name)
		dv, present := doc[name]
		n, isNum := f.read(w.r)
		dn, dIsNum := intOf(dv)
		str, isStr := f.str(w)
		dstr, dIsStr := dv.(string)
		k := f.key(w)
		equal, absent := compileQuery(Term(name, dv)).match(w), compileQuery(Term(name, nil)).match(w)
		if isStr != dIsStr || str != dstr || isNum != dIsNum || isNum && n != dn ||
			k.isNum != dIsNum || k.text() != keyString(dv) || !equal || absent == present {
			t.Fatalf("row %d, %s: the table reads %q %v, integer %d %v, key %+v, equal %v, absent %v; the document %#v (present %v)",
				id, name, str, isStr, n, isNum, k, equal, absent, dv, present)
		}
	}
}

// TestPackedRowMatchesEvent holds the schema table (fieldTable) and the
// packed row's accessors to an independent reference: over seeded
// generated events (genEvent), Row.Event(pack(e)) is e canonicalized, every
// Row accessor equals its field of that unpack, and every read through a
// resolved entry, for every schema field and an unknown name, agrees in
// value and presence with EventToDoc's document of the canonical event: a
// compiled term of the document's value matches the row, and one of nil
// only where the document lacks the field.
func TestPackedRowMatchesEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sh := newShard()
	want := make([]event.Event, 4000)
	for i := range want {
		want[i] = genEvent(rng, genStamp(i))
		want[i].Canonicalize()
		e := want[i]
		if id := sh.addEventLocked(&e); int(id) != i {
			t.Fatalf("row %d stored at %d", i, id)
		}
	}
	for i := range want {
		checkPacked(t, sh, int32(i), &want[i])
	}
}

// FuzzPackRoundTrip: every batch a frame decodes to packs and unpacks to
// itself, row by row, through one shard's dictionaries.
func FuzzPackRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]event.Event, 64)
	for i := range random {
		random[i] = genEvent(rng, genStamp(i))
	}
	fixture := make([]event.Event, 64)
	for i := range fixture {
		fixture[i] = heapFixture(i)
	}
	for _, evs := range [][]event.Event{random, fixture, crashEvents(0), nil} {
		f.Add(event.EncodeBatch(nil, evs))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		evs, err := event.DecodeBatch(frame, nil)
		if err != nil {
			return
		}
		sh := newShard()
		for i := range evs {
			sh.addEventLocked(&evs[i])
		}
		for i := range evs {
			checkPacked(t, sh, int32(i), &evs[i])
		}
	})
}

// TestLiveStateEqualsItsRoundTrip: a durable store given values its journal
// cannot carry whole — a pid past 32 bits, a string past the codec's cap —
// serves live exactly what it serves after a reopen, and what a follower of
// it would: the canonical event, not the value as given.
func TestLiveStateEqualsItsRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openDurable(t, dir, WithShards(2))
	evs := crashEvents(0)
	evs[0].PID = 1<<32 + 5
	evs[1].TID = math.MinInt32 - 2
	evs[2].ArgPath = strings.Repeat("p", 70_000)
	evs[3].Offset, evs[3].HasOffset = 99, false
	if err := st.BulkEvents(ctx, crashIndex, evs); err != nil {
		t.Fatal(err)
	}
	live := fingerprint(t, st)
	res, err := st.SearchEvents(ctx, crashIndex, SearchRequest{Query: Term(FieldPID, int64(5))})
	if err != nil || res.Total != 1 {
		t.Fatalf("live: %d rows hold pid 5 (%v), want the one given 1<<32+5", res.Total, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, WithShards(2))
	defer re.Close()
	if got := fingerprint(t, re); got != live {
		t.Fatalf("the reopened store serves\n%s\nwhere the live one served\n%s", got, live)
	}
}

// TestCorrelateInternsWhileSearching: one correlation pass names the hot rows
// of a durable store, adding each path to every shard's file_path dictionary,
// while two readers page the session with a sorted and an unsorted cursor.
// Every hit's file_path is "" or the row's final name, and the store's final
// fingerprint equals that of an in-memory control given the same rows and
// pass. Run under -race.
func TestCorrelateInternsWhileSearching(t *testing.T) {
	ctx := context.Background()
	const rows, files = 4000, 40
	evs := make([]event.Event, rows)
	for i := range evs {
		f := i % files
		evs[i] = event.Event{
			Session: "s", Syscall: "read", ThreadName: "w", TimeEnterNS: int64(1e12) + int64(i)*1000,
			FileTag: event.FileTag{Dev: 8, Ino: uint64(100 + f), BirthNS: 1},
		}
		if i < files {
			evs[i].Syscall, evs[i].KernelPath = "openat", fmt.Sprintf("/data/file-%02d", f)
		}
	}
	control := memStore(t, WithShards(4))
	st := openDurable(t, t.TempDir(), WithShards(4), WithFsyncPolicy(FsyncOff), WithQueryCache(0))
	defer st.Close()
	for _, s := range []*Store{control, st} {
		for lo := 0; lo < rows; lo += 500 {
			if err := s.BulkEvents(ctx, crashIndex, evs[lo:lo+500]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := control.Correlate(ctx, crashIndex, "s"); err != nil {
		t.Fatal(err)
	}
	final := make(map[int64]string, rows)
	all, err := control.SearchEvents(ctx, crashIndex, SearchRequest{Query: MatchAll(), Size: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all.Hits {
		final[e.TimeEnterNS] = e.FilePath
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, sorts := range [][]SortField{{{Field: FieldTimeEnter}}, nil} {
		wg.Add(1)
		go func(sorts []SortField) {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				req := SearchRequest{Query: Term(FieldSession, "s"), Sort: sorts, Size: 97}
				for seen := 0; ; {
					res, err := st.SearchEvents(ctx, crashIndex, req)
					if err != nil {
						t.Error(err)
						return
					}
					for _, e := range res.Hits {
						if e.FilePath != "" && e.FilePath != final[e.TimeEnterNS] {
							t.Errorf("row at %d reads file_path %q, want \"\" or %q", e.TimeEnterNS, e.FilePath, final[e.TimeEnterNS])
							return
						}
					}
					if seen += len(res.Hits); res.NextAfter == nil {
						if seen != rows {
							t.Errorf("a walk saw %d rows of %d", seen, rows)
						}
						break
					}
					req.SearchAfter = res.NextAfter
				}
			}
		}(sorts)
	}
	res, err := st.Correlate(ctx, crashIndex, "s")
	close(done)
	wg.Wait()
	if err != nil || res.EventsUpdated != rows {
		t.Fatalf("correlate: %+v (%v), want every row named", res, err)
	}
	if got, want := fingerprint(t, st), fingerprint(t, control); got != want {
		t.Fatalf("after the pass the store serves\n%s\nwhere the control serves\n%s", got, want)
	}
}
