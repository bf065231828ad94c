// Package durabletest builds on-disk forms that internal/durable no longer
// writes, so tests can check that every reader refuses them.
package durabletest

import (
	"encoding/binary"
	"hash/crc32"
)

// Header offsets of a segment's total and generic row counts.
const (
	segTotalAt   = 4 + 1 + 4
	segGenericAt = segTotalAt + 8 + 8
)

// WithGenericRows returns a copy of the segment image img with docs appended
// as rows of the retired generic block, each as a u64 gid (numbered on from
// the image's row count), a u32 length and the payload. It raises the
// header's total and generic counts to match and recomputes the trailing
// CRC-32C, so the result is what a writer that still kept the generic form
// would have published.
func WithGenericRows(img []byte, docs ...[]byte) []byte {
	out := append([]byte(nil), img[:len(img)-4]...)
	total := binary.LittleEndian.Uint64(out[segTotalAt:])
	for i, doc := range docs {
		out = binary.LittleEndian.AppendUint64(out, total+uint64(i))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(doc)))
		out = append(out, doc...)
	}
	n := uint64(len(docs))
	binary.LittleEndian.PutUint64(out[segTotalAt:], total+n)
	binary.LittleEndian.PutUint64(out[segGenericAt:], binary.LittleEndian.Uint64(out[segGenericAt:])+n)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}
