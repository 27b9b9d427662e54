package txn

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestCoreLayout pins Core's layout rule: no word written per
// transaction (the instance counter, any stripe counter) lies within 128
// bytes of a word read per transaction, stripes are 128 bytes apart, and
// the last stripe word is 128 bytes from the end, where the embedding STM
// puts its own fields. A field added in the wrong place fails here instead
// of quietly putting a shared line back on every transaction.
func TestCoreLayout(t *testing.T) {
	var c Core
	var s coreStripe
	type word struct {
		name string
		off  uintptr
	}
	// words lists the offsets of the 8-byte words a field spans.
	words := func(name string, off, size uintptr) []word {
		var w []word
		for o := uintptr(0); o < size; o += 8 {
			w = append(w, word{fmt.Sprintf("%s+%d", name, o), off + o})
		}
		return w
	}
	var read []word
	read = append(read, words("cfg", unsafe.Offsetof(c.cfg), unsafe.Sizeof(c.cfg))...)
	read = append(read, words("hooks", unsafe.Offsetof(c.hooks), unsafe.Sizeof(c.hooks))...)
	read = append(read, words("escThreshold", unsafe.Offsetof(c.escThreshold), unsafe.Sizeof(c.escThreshold))...)
	read = append(read, words("Irrev", unsafe.Offsetof(c.Irrev), unsafe.Sizeof(c.Irrev))...)

	written := words("instances", unsafe.Offsetof(c.instances), unsafe.Sizeof(c.instances))
	for i := 0; i < coreStripes; i++ {
		base := unsafe.Offsetof(c.stripes) + uintptr(i)*unsafe.Sizeof(s)
		for _, f := range []struct {
			name string
			off  uintptr
		}{
			{"commits", unsafe.Offsetof(s.commits)},
			{"aborts", unsafe.Offsetof(s.aborts)},
			{"escalations", unsafe.Offsetof(s.escalations)},
		} {
			written = append(written, word{fmt.Sprintf("stripes[%d].%s", i, f.name), base + f.off})
		}
	}

	dist := func(a, b uintptr) uintptr {
		if a > b {
			return a - b
		}
		return b - a
	}
	for _, w := range written {
		for _, r := range read {
			if d := dist(w.off, r.off); d < 128 {
				t.Errorf("%s (written per transaction, offset %d) is %d bytes from %s (read per transaction, offset %d), want ≥ 128",
					w.name, w.off, d, r.name, r.off)
			}
		}
	}
	if sz := unsafe.Sizeof(s); sz != 128 {
		t.Errorf("stripes are %d bytes apart, want 128", sz)
	}
	if d := unsafe.Offsetof(c.stripes) - unsafe.Offsetof(c.instances); d < 128 {
		t.Errorf("the first stripe is %d bytes after instances, want ≥ 128", d)
	}
	if last := written[len(written)-1]; unsafe.Sizeof(c)-last.off < 128 {
		t.Errorf("%s is %d bytes from Core's end, want ≥ 128: the embedder's next field would share its line",
			last.name, unsafe.Sizeof(c)-last.off)
	}
}
