package event

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ContentTypeBinaryV1 is the HTTP media type of the version-1 binary event
// frame produced by EncodeBatch. The store client sends every bulk request
// under this content type; a server that refuses it answers an error, which
// the client returns as given (see DESIGN.md §10).
const ContentTypeBinaryV1 = "application/x-dio-events.v1"

// CodecVersion is the wire-format version EncodeBatch emits.
const CodecVersion = 1

// codecMagic prefixes every frame so a decoder can reject arbitrary bytes
// (an NDJSON payload routed here by mistake, a truncated proxy response)
// before trusting any length field.
var codecMagic = [4]byte{'D', 'I', 'O', 'E'}

// Frame layout (all integers little-endian):
//
//	[4]  magic "DIOE"
//	[1]  version (1)
//	[4]  u32 event count
//	per event:
//	  [4] u32 payload length (fixed section + strings)
//	  payload:
//	    fixed: ret_val i64, arg_offset i64, time_enter i64, time_exit i64,
//	           offset i64, dev u64, ino u64, birth i64,
//	           pid i32, tid i32, fd i32, count i32, whence i32, flags i32,
//	           mode u32, aux u8 (bit 0: has_offset)
//	    strings, each u16 length + bytes: session, syscall, class, proc_name,
//	           thread_name, arg_path, arg_path2, xattr_name, file_type,
//	           kernel_path, file_path
//
// The per-event length prefix makes truncation detectable without decoding
// and lets a future version append fields that a v1 decoder would reject by
// version, never by guessing.

const (
	codecHeaderLen     = 4 + 1 + 4
	codecFixedLen      = 8*8 + 6*4 + 4 + 1
	codecStringCount   = 11
	codecMinEventLen   = codecFixedLen + 2*codecStringCount
	codecAuxHasOffset  = 1 << 0
	codecMaxFrameCount = 1 << 26 // sanity bound on the count field
	// codecMaxStringLen is the largest string the u16 length prefix can
	// carry; EncodeBatch truncates longer values and eventEncodedSize must
	// apply the same cap so plen, EncodedSize, and the written bytes agree.
	codecMaxStringLen = 0xFFFF
)

// ErrBadFrame reports a frame DecodeBatch could not parse: wrong magic,
// unsupported version, a truncated or over-long payload, or trailing bytes.
var ErrBadFrame = errors.New("event: bad binary frame")

// EncodedSize returns the exact frame size for events, letting callers
// pre-size buffers from batch stats instead of growing them on the fly.
func EncodedSize(events []Event) int {
	n := codecHeaderLen
	for i := range events {
		n += 4 + eventEncodedSize(&events[i])
	}
	return n
}

func eventEncodedSize(e *Event) int {
	n := codecMinEventLen
	for _, s := range eventStrings(e) {
		n += min(len(s), codecMaxStringLen)
	}
	return n
}

// eventStrings enumerates the event's string fields in wire order; the
// encoder and the size computation share it so they cannot disagree.
func eventStrings(e *Event) [codecStringCount]string {
	return [codecStringCount]string{
		e.Session, e.Syscall, e.Class, e.ProcName, e.ThreadName,
		e.ArgPath, e.ArgPath2, e.AttrName, e.FileType, e.KernelPath,
		e.FilePath,
	}
}

// EncodeBatch appends the version-1 binary frame for events to dst and
// returns the extended slice. Callers recycle dst across batches, so the
// steady-state encode path allocates nothing once the buffer has grown to
// the working batch size.
func EncodeBatch(dst []byte, events []Event) []byte {
	need := EncodedSize(events)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	le := binary.LittleEndian
	dst = append(dst, codecMagic[:]...)
	dst = append(dst, CodecVersion)
	dst = le.AppendUint32(dst, uint32(len(events)))
	for i := range events {
		e := &events[i]
		dst = le.AppendUint32(dst, uint32(eventEncodedSize(e)))
		dst = le.AppendUint64(dst, uint64(e.RetVal))
		dst = le.AppendUint64(dst, uint64(e.ArgOff))
		dst = le.AppendUint64(dst, uint64(e.TimeEnterNS))
		dst = le.AppendUint64(dst, uint64(e.TimeExitNS))
		dst = le.AppendUint64(dst, uint64(e.Offset))
		dst = le.AppendUint64(dst, e.FileTag.Dev)
		dst = le.AppendUint64(dst, e.FileTag.Ino)
		dst = le.AppendUint64(dst, uint64(e.FileTag.BirthNS))
		dst = le.AppendUint32(dst, uint32(int32(e.PID)))
		dst = le.AppendUint32(dst, uint32(int32(e.TID)))
		dst = le.AppendUint32(dst, uint32(int32(e.FD)))
		dst = le.AppendUint32(dst, uint32(int32(e.Count)))
		dst = le.AppendUint32(dst, uint32(int32(e.Whence)))
		dst = le.AppendUint32(dst, uint32(int32(e.Flags)))
		dst = le.AppendUint32(dst, e.Mode)
		var aux byte
		if e.HasOffset {
			aux |= codecAuxHasOffset
		}
		dst = append(dst, aux)
		for _, s := range eventStrings(e) {
			if len(s) > codecMaxStringLen {
				s = s[:codecMaxStringLen]
			}
			dst = le.AppendUint16(dst, uint16(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// decoder carries per-frame decode state: an interning table that collapses
// the heavily repeated short strings (syscall names, classes, session and
// process names) into one allocation each, which is where the typed path's
// per-event allocation budget is won.
type decoder struct {
	intern map[string]string
}

const internMaxLen = 64

func (d *decoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) <= internMaxLen {
		// map[string]string lookup keyed by string(b) does not allocate.
		if s, ok := d.intern[string(b)]; ok {
			return s
		}
		s := string(b)
		if d.intern == nil {
			d.intern = make(map[string]string, 16)
		}
		d.intern[s] = s
		return s
	}
	return string(b)
}

// DecodeBatch parses a frame produced by EncodeBatch, appending the decoded
// events to dst (which may be nil) and returning the extended slice. It
// validates the magic, version, and every length field: truncated or corrupt
// frames return ErrBadFrame-wrapped errors and never panic, and dst's
// original contents are always intact on error.
func DecodeBatch(data []byte, dst []Event) ([]Event, error) {
	le := binary.LittleEndian
	if len(data) < codecHeaderLen {
		return dst, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(data))
	}
	if [4]byte(data[:4]) != codecMagic {
		return dst, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if v := data[4]; v != CodecVersion {
		return dst, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	count := int(le.Uint32(data[5:]))
	if count < 0 || count > codecMaxFrameCount {
		return dst, fmt.Errorf("%w: implausible event count %d", ErrBadFrame, count)
	}
	o := codecHeaderLen
	base := len(dst)
	// Size dst for the whole batch up front, believing count only as far as
	// the bytes in hand could back it.
	if n := min(count, (len(data)-o)/(4+codecMinEventLen)); cap(dst)-base < n {
		dst = append(make([]Event, 0, base+n), dst...)
	}
	var d decoder
	for i := 0; i < count; i++ {
		if o+4 > len(data) {
			return dst[:base], fmt.Errorf("%w: truncated at event %d", ErrBadFrame, i)
		}
		plen := int(le.Uint32(data[o:]))
		o += 4
		if plen < codecMinEventLen || o+plen > len(data) {
			return dst[:base], fmt.Errorf("%w: bad payload length %d at event %d", ErrBadFrame, plen, i)
		}
		p := data[o : o+plen]
		o += plen
		var e Event
		e.RetVal = int64(le.Uint64(p[0:]))
		e.ArgOff = int64(le.Uint64(p[8:]))
		e.TimeEnterNS = int64(le.Uint64(p[16:]))
		e.TimeExitNS = int64(le.Uint64(p[24:]))
		e.Offset = int64(le.Uint64(p[32:]))
		e.FileTag.Dev = le.Uint64(p[40:])
		e.FileTag.Ino = le.Uint64(p[48:])
		e.FileTag.BirthNS = int64(le.Uint64(p[56:]))
		e.PID = int(int32(le.Uint32(p[64:])))
		e.TID = int(int32(le.Uint32(p[68:])))
		e.FD = int(int32(le.Uint32(p[72:])))
		e.Count = int(int32(le.Uint32(p[76:])))
		e.Whence = int(int32(le.Uint32(p[80:])))
		e.Flags = int(int32(le.Uint32(p[84:])))
		e.Mode = le.Uint32(p[88:])
		aux := p[92]
		e.HasOffset = aux&codecAuxHasOffset != 0
		if !e.HasOffset {
			e.Offset = 0
		}
		so := codecFixedLen
		var strs [codecStringCount]string
		for j := range strs {
			if so+2 > len(p) {
				return dst[:base], fmt.Errorf("%w: truncated string %d at event %d", ErrBadFrame, j, i)
			}
			n := int(le.Uint16(p[so:]))
			so += 2
			if so+n > len(p) {
				return dst[:base], fmt.Errorf("%w: string %d overruns payload at event %d", ErrBadFrame, j, i)
			}
			strs[j] = d.str(p[so : so+n])
			so += n
		}
		if so != len(p) {
			return dst[:base], fmt.Errorf("%w: %d trailing payload bytes at event %d", ErrBadFrame, len(p)-so, i)
		}
		e.Session, e.Syscall, e.Class = strs[0], strs[1], strs[2]
		e.ProcName, e.ThreadName = strs[3], strs[4]
		e.ArgPath, e.ArgPath2, e.AttrName = strs[5], strs[6], strs[7]
		e.FileType, e.KernelPath, e.FilePath = strs[8], strs[9], strs[10]
		dst = append(dst, e)
	}
	if o != len(data) {
		return dst[:base], fmt.Errorf("%w: %d trailing bytes after %d events", ErrBadFrame, len(data)-o, count)
	}
	return dst, nil
}
