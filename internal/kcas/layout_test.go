package kcas

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestPoolLayout: the fields every At and scan reads (slabs, limit,
// dom) are a line away from the carve-path writes (next, growMu),
// whatever the pool's alignment.
func TestPoolLayout(t *testing.T) {
	var p Pool
	readEnd := unsafe.Offsetof(p.dom) + unsafe.Sizeof(p.dom)
	for _, h := range []uintptr{unsafe.Offsetof(p.next), unsafe.Offsetof(p.growMu)} {
		if h-readEnd < pad.CacheLineSize-1 {
			t.Fatalf("hot field at offset %d is %d bytes past the read-mostly fields", h, h-readEnd)
		}
	}
}

// TestCtxCountersOwnLines: the per-context helping counters are fenced
// by at least a line on both sides, whatever the Ctx's alignment.
func TestCtxCountersOwnLines(t *testing.T) {
	var c Ctx
	start := unsafe.Offsetof(c.ctr) + unsafe.Offsetof(c.ctr.helps)
	end := unsafe.Offsetof(c.ctr) + unsafe.Offsetof(c.ctr.lateP2) + 8
	// No line can hold both a counter byte and a byte outside c.ctr
	// when a full line separates them on each side.
	if start-unsafe.Offsetof(c.ctr) < pad.CacheLineSize || unsafe.Sizeof(c)-end < pad.CacheLineSize-1 {
		t.Fatalf("counters at [%d,%d) in a %d-byte Ctx are not fenced by a line", start, end, unsafe.Sizeof(c))
	}
}
