package testutil

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// WithShardSlots rewrites a checkpoint file into the form builds with the
// shard rebalancer wrote: the same state plus a 256-entry slot table (slot
// s on shard s % k) where current encoders write an empty section. A full
// checkpoint (format version 2) ends in that section; a delta (version 3)
// carries it right after its five leading varints.
func WithShardSlots(t testing.TB, enc []byte, k int) []byte {
	t.Helper()
	const magicLen = 8
	const hdrLen = magicLen + 2 + 8
	if len(enc) < hdrLen+4 {
		t.Fatalf("checkpoint of %d bytes is shorter than its envelope", len(enc))
	}
	payload := enc[hdrLen : len(enc)-4]
	at := 0
	switch ver := binary.LittleEndian.Uint16(enc[magicLen:]); ver {
	case 2:
		at = len(payload) - 1
	case 3:
		for i := 0; i < 5; i++ {
			_, n := binary.Varint(payload[at:])
			if n <= 0 {
				t.Fatalf("delta header varint %d unreadable", i)
			}
			at += n
		}
	default:
		t.Fatalf("checkpoint format version %d has no slot table", ver)
	}
	if at < 0 || at >= len(payload) || payload[at] != 0 {
		t.Fatalf("no empty slot table at payload offset %d", at)
	}
	out := append([]byte(nil), payload[:at]...)
	out = binary.AppendUvarint(out, 256)
	for s := 0; s < 256; s++ {
		out = binary.AppendUvarint(out, uint64(s%k))
	}
	out = append(out, payload[at+1:]...)

	file := append([]byte(nil), enc[:magicLen+2]...)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(out)))
	file = append(file, out...)
	return binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(out))
}
