package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ContentTypeBinaryV2 is the HTTP media type of the binary event frame
// produced by EncodeBatch. The store client sends every bulk request under
// this content type; a server that refuses it answers an error, which the
// client returns as given (see DESIGN.md §10).
const ContentTypeBinaryV2 = "application/x-dio-events.v2"

// ContentTypeRetiredV1 is the media type of the retired fixed-layout frame.
// Nothing encodes or decodes it; a server names it when it refuses a body
// sent under it.
const ContentTypeRetiredV1 = "application/x-dio-events.v1"

// CodecVersion is the wire-format version EncodeBatch emits.
const CodecVersion = 2

// codecMagic prefixes every frame so a decoder can reject arbitrary bytes
// (an NDJSON payload routed here by mistake, a truncated proxy response)
// before trusting any length field.
var codecMagic = [4]byte{'D', 'I', 'O', 'E'}

// Frame layout:
//
//	[4]      magic "DIOE"
//	[1]      version (2)
//	uvarint  row count
//	per row:
//	  11 uvarint string refs, in wireStrings order:
//	       0  the previous row's value of this field ("" before the first row)
//	       1  a new literal: uvarint length + bytes, appended to the frame's
//	          dictionary
//	       2  the empty string
//	       k  dictionary[k-3], for k >= 3
//	  15 zigzag varints:
//	       time_enter                          delta from the previous row
//	       time_exit                           minus this row's time_enter
//	       pid, tid, ret_val, dev, ino, birth  deltas from the previous row
//	       arg_offset, offset, fd, count, whence, flags, mode   raw
//	       pid, tid, fd, count, whence and flags hold int32 values, mode a
//	       uint32: the encoder cuts wider values (Canonicalize), the
//	       decoder refuses them
//	  [1] aux (bit 0: has_offset)
//
// A batch repeats the same few strings row after row and its integers move
// in small steps, so a row is a few dozen bytes where a fixed layout spends
// one and a half hundred. The dictionary lives and dies with its frame: every
// frame decodes alone, which is what lets the WAL journal a bulk frame as
// received and repl ship it as journaled.

const (
	codecStringCount = 11
	codecIntCount    = 15
	// codecMinRowLen is the smallest row: one byte per ref and per varint,
	// plus aux. It bounds how far DecodeBatch believes a frame's count.
	codecMinRowLen     = codecStringCount + codecIntCount + 1
	codecAuxHasOffset  = 1 << 0
	codecMaxFrameCount = 1 << 26 // sanity bound on the count field
	// codecMaxStringLen caps one literal. EncodeBatch truncates longer values
	// (Canonicalize), before comparing them with anything, and DecodeBatch
	// refuses longer literals.
	codecMaxStringLen = 0xFFFF

	refPrev    = 0
	refLiteral = 1
	refEmpty   = 2
	refDict    = 3 // ref of dictionary entry 0
)

// ErrBadFrame reports a frame DecodeBatch could not parse: wrong magic,
// unsupported version, a truncated or over-long row, a string ref past the
// dictionary, or trailing bytes.
var ErrBadFrame = errors.New("event: bad binary frame")

// wireStrings points at the event's string fields in wire order; the encoder
// reads through it and the decoder writes through it, so they cannot
// disagree.
func wireStrings(e *Event) [codecStringCount]*string {
	return [codecStringCount]*string{
		&e.Session, &e.Syscall, &e.Class, &e.ProcName, &e.ThreadName,
		&e.ArgPath, &e.ArgPath2, &e.AttrName, &e.FileType, &e.KernelPath,
		&e.FilePath,
	}
}

// EncodedSize returns the exact size of EncodeBatch's frame for events. With
// a dictionary that takes an encode, so it belongs off the serving path.
func EncodedSize(events []Event) int {
	return len(EncodeBatch(nil, events))
}

// EncodeBatch appends the binary frame for events to dst and returns the
// extended slice. The dictionary's table is pooled and callers recycle dst
// across batches, so the steady-state encode path allocates nothing once the
// buffer has grown to the working batch size.
func EncodeBatch(dst []byte, events []Event) []byte {
	enc := encoders.Get().(*encoder)
	dst = enc.encode(dst, events)
	encoders.Put(enc)
	return dst
}

// encoderKeepDict bounds the table a pooled encoder keeps: clearing a map
// costs its capacity, so after a frame with more distinct strings than this
// (a large hit page) the next frame starts from a fresh table.
const encoderKeepDict = 1024

// encoder is one frame's dictionary state, pooled so its table is reused.
type encoder struct {
	dict map[string]uint64 // literal → its ref
	next uint64            // the ref the next literal gets
}

var encoders = sync.Pool{New: func() any {
	return &encoder{dict: make(map[string]uint64, 64)}
}}

// Canonicalize puts e in the form every encoding of it carries, the frame
// and so the journal, replication and segments: Offset is cleared without
// HasOffset, pid, tid, fd, count, whence and flags are cut to int32, and a
// string longer than a literal may be is truncated to the cap. A stored event
// is canonical, so what a store serves live is what it serves after a
// round trip through its own files.
func (e *Event) Canonicalize() {
	if !e.HasOffset {
		e.Offset = 0
	}
	for _, f := range [...]*int{&e.PID, &e.TID, &e.FD, &e.Count, &e.Whence, &e.Flags} {
		*f = int(int32(*f))
	}
	for _, ps := range wireStrings(e) {
		if len(*ps) > codecMaxStringLen {
			*ps = (*ps)[:codecMaxStringLen]
		}
	}
}

// encode appends the frame for events to dst, each row as Canonicalize
// leaves a copy of it. The table is empty before and after.
func (enc *encoder) encode(dst []byte, events []Event) []byte {
	dst = append(dst, codecMagic[:]...)
	dst = append(dst, CodecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	enc.next = refDict
	var e, p Event
	for i := range events {
		e = events[i]
		e.Canonicalize()
		prev := wireStrings(&p)
		for f, ps := range wireStrings(&e) {
			if s := *ps; s == *prev[f] {
				dst = append(dst, refPrev)
			} else {
				dst = enc.str(dst, s)
			}
		}
		dst = binary.AppendVarint(dst, e.TimeEnterNS-p.TimeEnterNS)
		dst = binary.AppendVarint(dst, e.TimeExitNS-e.TimeEnterNS)
		dst = binary.AppendVarint(dst, int64(e.PID-p.PID))
		dst = binary.AppendVarint(dst, int64(e.TID-p.TID))
		dst = binary.AppendVarint(dst, e.RetVal-p.RetVal)
		dst = binary.AppendVarint(dst, int64(e.FileTag.Dev-p.FileTag.Dev))
		dst = binary.AppendVarint(dst, int64(e.FileTag.Ino-p.FileTag.Ino))
		dst = binary.AppendVarint(dst, e.FileTag.BirthNS-p.FileTag.BirthNS)
		dst = binary.AppendVarint(dst, e.ArgOff)
		dst = binary.AppendVarint(dst, e.Offset)
		dst = binary.AppendVarint(dst, int64(e.FD))
		dst = binary.AppendVarint(dst, int64(e.Count))
		dst = binary.AppendVarint(dst, int64(e.Whence))
		dst = binary.AppendVarint(dst, int64(e.Flags))
		dst = binary.AppendVarint(dst, int64(e.Mode))
		var aux byte
		if e.HasOffset {
			aux |= codecAuxHasOffset
		}
		dst = append(dst, aux)
		p = e
	}
	// Forget the frame's strings, so the pool holds no caller's memory.
	if enc.next-refDict > encoderKeepDict {
		enc.dict = make(map[string]uint64, 64)
	} else {
		clear(enc.dict)
	}
	return dst
}

// str writes the ref for s, which differs from the previous row's value of
// its field: the empty ref, a ref found in the dictionary, or a new literal.
func (enc *encoder) str(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, refEmpty)
	}
	if ref, ok := enc.dict[s]; ok {
		return binary.AppendUvarint(dst, ref)
	}
	enc.dict[s] = enc.next
	enc.next++
	dst = append(dst, refLiteral)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// uvarint reads the uvarint at data[o:] and returns it with the offset past
// it, or an offset of -1 when the bytes end first or the value overflows 64
// bits (ten or more continuation bytes).
func uvarint(data []byte, o int) (uint64, int) {
	if o < len(data) && data[o] < 0x80 {
		return uint64(data[o]), o + 1
	}
	v, n := binary.Uvarint(data[o:])
	if n <= 0 {
		return 0, -1
	}
	return v, o + n
}

// DecodeBatch parses a frame produced by EncodeBatch, appending the decoded
// events to dst (which may be nil) and returning the extended slice. It
// validates the magic, version, every ref and every length: truncated or
// corrupt frames return ErrBadFrame-wrapped errors and never panic, and dst's
// original contents are always intact on error. Each distinct string is
// allocated once per frame and shared by every row that names it.
func DecodeBatch(data []byte, dst []Event) ([]Event, error) {
	const header = len(codecMagic) + 1
	if len(data) < header+1 {
		return dst, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(data))
	}
	if [4]byte(data[:4]) != codecMagic {
		return dst, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if v := data[4]; v != CodecVersion {
		return dst, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	count, o := uvarint(data, header)
	if o < 0 || count > codecMaxFrameCount {
		return dst, fmt.Errorf("%w: implausible event count", ErrBadFrame)
	}
	base := len(dst)
	// Size dst for the whole batch up front, believing count only as far as
	// the bytes in hand could back it.
	if n := min(int(count), (len(data)-o)/codecMinRowLen); cap(dst)-base < n {
		dst = append(make([]Event, 0, base+n), dst...)
	}
	dst, err := decodeRows(data, o, int(count), dst)
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// int32Fields names, in frame order, the fields DecodeBatch refuses outside
// the int32 range.
var int32Fields = [...]string{"pid", "tid", "fd", "count", "whence", "flags"}

// decodeRows appends count rows read from data[o:], which they must fill.
func decodeRows(data []byte, o, count int, dst []Event) ([]Event, error) {
	var zero Event
	dict := make([]string, 0, 64)
	var v [codecIntCount]int64
	for i := 0; i < count; i++ {
		p := &zero
		if i > 0 {
			p = &dst[len(dst)-1]
		}
		dst = append(dst, Event{})
		e := &dst[len(dst)-1]
		cur, prev := wireStrings(e), wireStrings(p)
		for f := range cur {
			var ref uint64
			// uvarint's one-byte case, by hand: the call does not inline.
			if o < len(data) && data[o] < 0x80 {
				ref, o = uint64(data[o]), o+1
			} else if ref, o = uvarint(data, o); o < 0 {
				return dst, fmt.Errorf("%w: truncated string ref at event %d", ErrBadFrame, i)
			}
			switch ref {
			case refPrev:
				*cur[f] = *prev[f]
			case refLiteral:
				var n uint64
				if n, o = uvarint(data, o); o < 0 {
					return dst, fmt.Errorf("%w: truncated literal length at event %d", ErrBadFrame, i)
				}
				if n > codecMaxStringLen || n > uint64(len(data)-o) {
					return dst, fmt.Errorf("%w: %d-byte literal past the frame or the cap at event %d", ErrBadFrame, n, i)
				}
				s := string(data[o : o+int(n)])
				o += int(n)
				dict = append(dict, s)
				*cur[f] = s
			case refEmpty:
			default:
				if ref-refDict >= uint64(len(dict)) {
					return dst, fmt.Errorf("%w: string ref %d past a %d-entry dictionary at event %d", ErrBadFrame, ref, len(dict), i)
				}
				*cur[f] = dict[ref-refDict]
			}
		}
		for k := range v {
			var u uint64
			if o < len(data) && data[o] < 0x80 {
				u, o = uint64(data[o]), o+1
			} else if u, o = uvarint(data, o); o < 0 {
				return dst, fmt.Errorf("%w: truncated or overlong varint at event %d", ErrBadFrame, i)
			}
			v[k] = int64(u>>1) ^ -int64(u&1)
		}
		pid, tid := int64(p.PID)+v[2], int64(p.TID)+v[3]
		for k, x := range [...]int64{pid, tid, v[10], v[11], v[12], v[13]} {
			if x != int64(int32(x)) {
				return dst, fmt.Errorf("%w: %s %d past int32 at event %d", ErrBadFrame, int32Fields[k], x, i)
			}
		}
		if v[14] < 0 || v[14] > math.MaxUint32 {
			return dst, fmt.Errorf("%w: mode %d at event %d", ErrBadFrame, v[14], i)
		}
		if o >= len(data) {
			return dst, fmt.Errorf("%w: truncated aux at event %d", ErrBadFrame, i)
		}
		aux := data[o]
		o++
		e.TimeEnterNS = p.TimeEnterNS + v[0]
		e.TimeExitNS = e.TimeEnterNS + v[1]
		e.PID, e.TID = int(pid), int(tid)
		e.RetVal = p.RetVal + v[4]
		e.FileTag.Dev = p.FileTag.Dev + uint64(v[5])
		e.FileTag.Ino = p.FileTag.Ino + uint64(v[6])
		e.FileTag.BirthNS = p.FileTag.BirthNS + v[7]
		e.ArgOff = v[8]
		e.HasOffset = aux&codecAuxHasOffset != 0
		if e.HasOffset {
			e.Offset = v[9]
		}
		e.FD, e.Count, e.Whence, e.Flags = int(v[10]), int(v[11]), int(v[12]), int(v[13])
		e.Mode = uint32(v[14])
	}
	if o != len(data) {
		return dst, fmt.Errorf("%w: %d trailing bytes after %d events", ErrBadFrame, len(data)-o, count)
	}
	return dst, nil
}
