package tl2

import (
	"testing"
	"unsafe"
)

// TestClockLayout pins the clock's isolation: every 128-byte block that
// holds a byte of it (a cache line and the adjacent line prefetched with
// it) holds nothing else, wherever txn.Core's size puts it. Shrinking
// Core once moved the clock next to cm and opts, which every
// transaction reads.
func TestClockLayout(t *testing.T) {
	var s STM
	clock := unsafe.Offsetof(s.clock)
	end := clock + unsafe.Sizeof(s.clock)
	if core := unsafe.Sizeof(s.Core); clock < core+120 {
		t.Errorf("clock at %d is %d bytes after txn.Core's end, want ≥ 120", clock, clock-core)
	}
	if cm := unsafe.Offsetof(s.cm); cm < end+120 {
		t.Errorf("cm at %d is %d bytes after the clock's end, want ≥ 120", cm, cm-end)
	}
}
