package core

import "testing"

// TestLineCRCPinned pins the stored-checksum format: the CRC-32 of the
// little-endian line address followed by the data. The values were
// recorded from the original from-scratch codec, so any drift in the
// address encoding or polynomial shows up here.
func TestLineCRCPinned(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if got := lineCRC(0x2a5f00d, data); got != 0x751fbaba {
		t.Errorf("lineCRC(0x2a5f00d, pattern) = %#08x, want 0x751fbaba", got)
	}
	if got := lineCRC(0, make([]byte, 64)); got != 0x0fc2bb52 {
		t.Errorf("lineCRC(0, zeros) = %#08x, want 0x0fc2bb52", got)
	}
}
