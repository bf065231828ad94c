package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// The typed hit body (DESIGN.md §12): how a search answer crosses HTTP
// without a hit ever becoming a map. /_search sends it to a request that
// accepts event.ContentTypeBinaryV2, /_scatter always does, and the node and
// the coordinator write it — and Client reads it — through this one codec.
// Layout: u32 little-endian envelope length, the JSON envelope (everything
// but the hits), then the hits as one event.EncodeBatch frame.

// ErrBadHitsBody reports a typed hit body that could not be parsed, or a
// response that was not one.
var ErrBadHitsBody = errors.New("store: bad typed hits body")

// hitsBody is a typed search answer on the wire. A /_search body fills Aggs
// and NextAfter (SearchResponse minus hits); a /_scatter body fills Gids and
// Partials.
type hitsBody struct {
	Total     int                   `json:"total"`
	Aggs      map[string]AggResult  `json:"aggs,omitempty"`
	NextAfter []any                 `json:"next_after,omitempty"`
	Gids      []int                 `json:"gids,omitempty"`
	Partials  map[string]AggPartial `json:"partials,omitempty"`
	Hits      []event.Event         `json:"-"`
}

// encode appends the body's image to dst.
func (b *hitsBody) encode(dst []byte) ([]byte, error) {
	env, err := json.Marshal(b)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(env)))
	dst = append(dst, env...)
	return event.EncodeBatch(dst, b.Hits), nil
}

// decodeHitsBody parses an encode image, validating every length before
// trusting it: the envelope must fit the body, the frame must end where the
// body does, and row ids, when present, must be one per hit.
func decodeHitsBody(data []byte) (hitsBody, error) {
	var b hitsBody
	if len(data) < 4 {
		return b, fmt.Errorf("%w: short header (%d bytes)", ErrBadHitsBody, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || n > len(data)-4 {
		return b, fmt.Errorf("%w: %d-byte envelope overruns %d bytes", ErrBadHitsBody, n, len(data))
	}
	if err := decodeJSON(bytes.NewReader(data[4:4+n]), &b); err != nil {
		return hitsBody{}, fmt.Errorf("%w: envelope: %v", ErrBadHitsBody, err)
	}
	hits, err := event.DecodeBatch(data[4+n:], nil)
	if err != nil {
		return hitsBody{}, fmt.Errorf("%w: %v", ErrBadHitsBody, err)
	}
	if len(b.Gids) != 0 && len(b.Gids) != len(hits) {
		return hitsBody{}, fmt.Errorf("%w: %d gids for %d hits", ErrBadHitsBody, len(b.Gids), len(hits))
	}
	b.Hits = hits
	return b, nil
}

// readResponse is Client.doReader's decode hook for a typed answer. A JSON
// answer is an error naming it, not a second decode path.
func (b *hitsBody) readResponse(resp *http.Response) error {
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, event.ContentTypeBinaryV2) {
		return fmt.Errorf("%w: server answered %q, not %s", ErrBadHitsBody, ct, event.ContentTypeBinaryV2)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	*b, err = decodeHitsBody(data)
	return err
}

// write answers with the body, encoded into a recycled buffer: a frame's
// exact size takes an encode of its own, so the buffer is not pre-sized but
// kept at the working page size across answers.
func (b *hitsBody) write(w http.ResponseWriter) {
	bp := encodePool.Get().(*[]byte)
	data, err := b.encode((*bp)[:0])
	if err != nil {
		WriteError(w, fmt.Errorf("encode response: %w", err))
	} else {
		w.Header().Set("Content-Type", event.ContentTypeBinaryV2)
		_, _ = w.Write(data)
	}
	if cap(data) <= poolKeepFlushes*flushBodyBytes {
		*bp = data[:0]
		encodePool.Put(bp)
	}
}

// writeSearchResult answers one /_search with res: the typed hit body when
// the request accepts it, otherwise JSON with each hit rendered as a
// Document.
func writeSearchResult(w http.ResponseWriter, r *http.Request, res EventsResult) {
	if strings.Contains(r.Header.Get("Accept"), event.ContentTypeBinaryV2) {
		(&hitsBody{Total: res.Total, Aggs: res.Aggs, NextAfter: res.NextAfter, Hits: res.Hits}).write(w)
		return
	}
	writeJSON(w, http.StatusOK, res.Documents())
}
