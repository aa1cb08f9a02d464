package core

// Checksum trailer for checkpoint frames spilled to untrusted storage.
// A sealed frame is the payload followed by an 8-byte trailer: a magic
// word ("GEOK") and the CRC32-C (Castagnoli) of the payload. The
// trailer turns silent storage corruption — torn writes, bit rot,
// truncation — into a typed ErrCheckpointCorrupt at read time instead
// of a garbage decode: CRC32-C detects all single-bit errors and all
// burst errors up to 32 bits, and the length asymmetry (any truncation
// moves the trailer) catches torn writes of every size.
//
// The trailer is storage framing, not part of the snapshot codec
// itself: in-memory checkpoints (Session.Checkpoint bytes handed
// straight back to NewSessionFromCheckpoint) never carry it; the disk
// spill store (internal/store) seals on write and verifies-and-strips
// on read.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// checksumMagic guards the trailer ("GEOK").
const checksumMagic = 0x47454F4B

// ChecksumTrailerSize is the byte cost of SealChecksum.
const ChecksumTrailerSize = 8

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealChecksum appends the checksum trailer to payload and returns the
// sealed frame (may share payload's backing array, like append).
func SealChecksum(payload []byte) []byte {
	t := ChecksumTrailer(payload)
	return append(payload, t[:]...)
}

// ChecksumTrailer returns the trailer SealChecksum would append to the
// concatenation of parts. The CRC is chained over the parts in turn, so
// a writer can seal a frame it never assembles in one buffer.
func ChecksumTrailer(parts ...[]byte) [ChecksumTrailerSize]byte {
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	var t [ChecksumTrailerSize]byte
	binary.LittleEndian.PutUint32(t[:], checksumMagic)
	binary.LittleEndian.PutUint32(t[4:], crc)
	return t
}

// VerifyChecksum checks a sealed frame's trailer and returns the
// payload with the trailer stripped (a sub-slice of data, not a copy).
// A missing trailer, wrong magic, or CRC mismatch returns a typed
// ErrCheckpointCorrupt.
func VerifyChecksum(data []byte) ([]byte, error) {
	if len(data) < ChecksumTrailerSize {
		return nil, fmt.Errorf("%w: %d bytes, no room for the checksum trailer", ErrCheckpointCorrupt, len(data))
	}
	payload := data[:len(data)-ChecksumTrailerSize]
	trailer := data[len(data)-ChecksumTrailerSize:]
	if m := binary.LittleEndian.Uint32(trailer); m != checksumMagic {
		return nil, fmt.Errorf("%w: bad checksum trailer magic %#x", ErrCheckpointCorrupt, m)
	}
	want := binary.LittleEndian.Uint32(trailer[4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: CRC32-C mismatch: stored %#x, computed %#x", ErrCheckpointCorrupt, want, got)
	}
	return payload, nil
}
