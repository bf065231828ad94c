package event

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// ErrBadPathsRecord reports a paths-record payload DecodePaths could not
// parse.
var ErrBadPathsRecord = errors.New("event: bad paths record")

// PathPair names one file: the tag the kernel stamped on its accesses and the
// path correlation found for it.
type PathPair struct {
	Tag  FileTag
	Path string
}

// PathsRecord is the one update a stored row ever receives, journaled (WAL
// record type durable.RecordPaths) and replicated as its parameters: "every
// tagged row below H (of Session, when set) that has no file_path takes its
// own kernel path, else the path Pairs gives its tag".
// H is the row horizon the correlation pass read before it touched a row, so
// replaying the record over any materialisation of the rows — WAL replay, a
// follower, a segment written before the pass — leaves rows at or past H
// exactly as unresolved as the live pass did. Pairs is sorted by tag.
type PathsRecord struct {
	H       int64
	Session string
	Pairs   []PathPair
}

// MarshalJSON and UnmarshalJSON carry the record through the manifest as its
// Encode payload (base64 in the JSON): one codec and one set of checks for
// both homes, and paths keep bytes JSON strings would not.
func (p PathsRecord) MarshalJSON() ([]byte, error) { return json.Marshal(p.Encode()) }

func (p *PathsRecord) UnmarshalJSON(data []byte) error {
	var payload []byte
	if err := json.Unmarshal(data, &payload); err != nil {
		return err
	}
	rec, err := DecodePaths(payload)
	*p = rec
	return err
}

func tagLess(a, b FileTag) bool {
	if a.Dev != b.Dev {
		return a.Dev < b.Dev
	}
	if a.Ino != b.Ino {
		return a.Ino < b.Ino
	}
	return a.BirthNS < b.BirthNS
}

// SortPairs puts Pairs in the order Lookup searches.
func (p *PathsRecord) SortPairs() {
	sort.Slice(p.Pairs, func(i, j int) bool { return tagLess(p.Pairs[i].Tag, p.Pairs[j].Tag) })
}

// Lookup returns the path recorded for tag.
func (p *PathsRecord) Lookup(tag FileTag) (string, bool) {
	i := sort.Search(len(p.Pairs), func(i int) bool { return !tagLess(p.Pairs[i].Tag, tag) })
	if i < len(p.Pairs) && p.Pairs[i].Tag == tag {
		return p.Pairs[i].Path, true
	}
	return "", false
}

// pathsPairMin is the smallest encoded pair: the 24-byte tag and an empty
// path's length prefix.
const pathsPairMin = 24 + 2

// Encode renders the record as its journal payload: u64 H, the session
// (u16 length + bytes), u32 pair count, then per pair the tag's three u64s
// and the path (u16 length + bytes). Strings are the ones rows already hold,
// so they fit the event codec's 65 535-byte string cap.
func (p PathsRecord) Encode() []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, 8+2+len(p.Session)+4+len(p.Pairs)*(pathsPairMin+32))
	b = le.AppendUint64(b, uint64(p.H))
	b = le.AppendUint16(b, uint16(len(p.Session)))
	b = append(b, p.Session...)
	b = le.AppendUint32(b, uint32(len(p.Pairs)))
	for _, pr := range p.Pairs {
		b = le.AppendUint64(b, pr.Tag.Dev)
		b = le.AppendUint64(b, pr.Tag.Ino)
		b = le.AppendUint64(b, uint64(pr.Tag.BirthNS))
		b = le.AppendUint16(b, uint16(len(pr.Path)))
		b = append(b, pr.Path...)
	}
	return b
}

// DecodePaths parses an Encode payload, checking every length against the
// bytes that remain before trusting it (a corrupt pair count allocates
// nothing), and that the pairs are in the order Lookup searches. Errors wrap
// ErrBadPathsRecord.
func DecodePaths(payload []byte) (PathsRecord, error) {
	le := binary.LittleEndian
	var p PathsRecord
	str := func(what string) (string, error) {
		if len(payload) < 2 || len(payload)-2 < int(le.Uint16(payload)) {
			return "", fmt.Errorf("%w: short %s", ErrBadPathsRecord, what)
		}
		n := int(le.Uint16(payload))
		s := string(payload[2 : 2+n])
		payload = payload[2+n:]
		return s, nil
	}
	if len(payload) < 8 {
		return p, fmt.Errorf("%w: short header (%d bytes)", ErrBadPathsRecord, len(payload))
	}
	p.H = int64(le.Uint64(payload))
	payload = payload[8:]
	var err error
	if p.Session, err = str("session"); err != nil {
		return p, err
	}
	if len(payload) < 4 {
		return p, fmt.Errorf("%w: short pair count", ErrBadPathsRecord)
	}
	n := int(le.Uint32(payload))
	payload = payload[4:]
	if n > len(payload)/pathsPairMin {
		return p, fmt.Errorf("%w: %d pairs overrun %d bytes", ErrBadPathsRecord, n, len(payload))
	}
	if n > 0 {
		p.Pairs = make([]PathPair, n)
	}
	for i := range p.Pairs {
		if len(payload) < 24 {
			return p, fmt.Errorf("%w: short tag %d", ErrBadPathsRecord, i)
		}
		p.Pairs[i].Tag = FileTag{
			Dev: le.Uint64(payload), Ino: le.Uint64(payload[8:]), BirthNS: int64(le.Uint64(payload[16:])),
		}
		payload = payload[24:]
		if p.Pairs[i].Path, err = str("path"); err != nil {
			return p, err
		}
	}
	if len(payload) != 0 {
		return p, fmt.Errorf("%w: %d trailing bytes", ErrBadPathsRecord, len(payload))
	}
	if p.H < 0 {
		return p, fmt.Errorf("%w: horizon %d out of range", ErrBadPathsRecord, p.H)
	}
	for i := 1; i < len(p.Pairs); i++ {
		if !tagLess(p.Pairs[i-1].Tag, p.Pairs[i].Tag) {
			return p, fmt.Errorf("%w: pair %d out of tag order", ErrBadPathsRecord, i)
		}
	}
	return p, nil
}
