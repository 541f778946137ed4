package hashmap

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// span is a field's byte range within its struct.
type span struct{ off, size uintptr }

func field(off, size uintptr) span { return span{off, size} }

// apart reports whether no cache line can hold bytes of both a and b,
// whatever the struct's alignment: at least 63 bytes lie between them.
func apart(a, b span) bool {
	if a.off > b.off {
		a, b = b, a
	}
	return b.off >= a.off+a.size+pad.CacheLineSize-1
}

func checkApart(t *testing.T, what string, hot []span, readMostly []span) {
	t.Helper()
	for _, h := range hot {
		for _, r := range readMostly {
			if !apart(h, r) {
				t.Fatalf("%s: hot field at offset %d may share a line with read-mostly field at %d", what, h.off, r.off)
			}
		}
	}
}

// TestShardLayout: count, written on every successful insert and
// remove, is a line away from cur/elim/ctrl — its own shard's and,
// across the array, the next shard's — and a shard is whole lines.
func TestShardLayout(t *testing.T) {
	var s shard
	sz := unsafe.Sizeof(s)
	count := field(unsafe.Offsetof(s.count), 8)
	readMostly := []span{
		field(unsafe.Offsetof(s.cur), 8), field(unsafe.Offsetof(s.elim), 8), field(unsafe.Offsetof(s.ctrl), 8),
		field(sz+unsafe.Offsetof(s.cur), 8), // the next shard in the array
	}
	checkApart(t, "shard", []span{count}, readMostly)
	if sz%pad.CacheLineSize != 0 {
		t.Fatalf("shard is %d bytes, not whole lines", sz)
	}
}

// TestTableLayout: the insert announcement counter and the drain claim
// cursor are each a line away from buckets, mask, sealed, draining and
// next, from each other, and from the next allocation.
func TestTableLayout(t *testing.T) {
	var tb table
	ins := field(unsafe.Offsetof(tb.ins), 8)
	claim := field(unsafe.Offsetof(tb.claim), 8)
	readMostly := []span{
		field(unsafe.Offsetof(tb.buckets), 24), field(unsafe.Offsetof(tb.mask), 8),
		field(unsafe.Offsetof(tb.next), 8), field(unsafe.Offsetof(tb.sealed), 4),
		field(unsafe.Offsetof(tb.draining), 4), field(unsafe.Sizeof(tb), 1),
	}
	checkApart(t, "table", []span{ins, claim}, readMostly)
	if !apart(ins, claim) {
		t.Fatal("table.ins and table.claim may share a line")
	}
}

// TestMapLayout: the grow counters, bumped per migrated entry, sit a
// line away from the shape fields every operation reads.
func TestMapLayout(t *testing.T) {
	var m Map
	readMostly := []span{
		field(unsafe.Offsetof(m.shards), 24), field(unsafe.Offsetof(m.shardMask), 8),
		field(unsafe.Offsetof(m.shardBits), 8), field(unsafe.Offsetof(m.growLoad), 8),
		field(unsafe.Offsetof(m.id), 8),
	}
	hot := []span{
		field(unsafe.Offsetof(m.grows), 8), field(unsafe.Offsetof(m.migrated), 8),
		field(unsafe.Offsetof(m.steps), 8),
	}
	checkApart(t, "Map", hot, readMostly)
}
