package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The 64-bit metadata word Citadel stores per cache line in the ECC die
// (paper Figure 6): 32 bits of CRC, 8 bits of TSV swap data, and 24 bits
// provisioned for sparing hints. The word travels over the dedicated ECC
// lanes alongside every 512-bit data transfer.

// lineCRC returns the CRC-32 (IEEE) stored for a cache line: the checksum
// of the line address (little-endian 64-bit) followed by the data. Folding
// the address in lets the checksum catch address-TSV faults, where the
// stack returns a perfectly valid but wrong row (paper §V-C.2).
func lineCRC(addr uint64, data []byte) uint32 {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], addr)
	return crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, data)
}

// metadata word layout, low bits first.
const (
	metaCRCShift   = 0
	metaCRCBits    = 32
	metaSwapShift  = metaCRCShift + metaCRCBits
	metaSwapBits   = 8
	metaSpareShift = metaSwapShift + metaSwapBits
	metaSpareBits  = 24
)

// Pack encodes the metadata into its 64-bit on-die representation.
func (m Metadata) Pack() uint64 {
	return uint64(m.CRC32)<<metaCRCShift |
		uint64(m.SwapBits)<<metaSwapShift |
		uint64(m.Spare&(1<<metaSpareBits-1))<<metaSpareShift
}

// UnpackMetadata decodes a 64-bit metadata word.
func UnpackMetadata(w uint64) Metadata {
	return Metadata{
		CRC32:    uint32(w >> metaCRCShift),
		SwapBits: uint8(w >> metaSwapShift),
		Spare:    uint32(w>>metaSpareShift) & (1<<metaSpareBits - 1),
	}
}

// String renders the metadata word for logs.
func (m Metadata) String() string {
	return fmt.Sprintf("meta{crc:%08x swap:%02x spare:%06x}", m.CRC32, m.SwapBits, m.Spare)
}
