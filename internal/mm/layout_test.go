package mm

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestCacheLayout: the owner-written lists and counters are at least a
// line away from the read-mostly manager pointer and thread id, and
// from whatever the allocator places next to the Cache.
func TestCacheLayout(t *testing.T) {
	var c Cache
	readEnd := unsafe.Offsetof(c.tid) + unsafe.Sizeof(c.tid)
	hotStart := unsafe.Offsetof(c.free)
	hotEnd := unsafe.Offsetof(c.scans) + unsafe.Sizeof(c.scans)
	if unsafe.Offsetof(c.m) < pad.CacheLineSize {
		t.Fatalf("manager pointer at offset %d is within a line of the previous allocation", unsafe.Offsetof(c.m))
	}
	if hotStart-readEnd < pad.CacheLineSize-1 {
		t.Fatalf("hot fields start %d bytes after the read-mostly ones", hotStart-readEnd)
	}
	if unsafe.Sizeof(c)-hotEnd < pad.CacheLineSize-1 {
		t.Fatalf("hot fields end %d bytes before the next allocation", unsafe.Sizeof(c)-hotEnd)
	}
}

// TestStatsExactUnderConcurrency: two threads allocate, retire and
// free-direct at once; once they join, the summed per-cache counters
// equal exactly what they did.
func TestStatsExactUnderConcurrency(t *testing.T) {
	const rounds = 20000
	m, _ := newTestManager(2)
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := m.NewCache(tid)
			for i := 0; i < rounds; i++ {
				r := c.Alloc()
				if i%2 == 0 {
					c.Retire(r)
				} else {
					c.FreeDirect(r)
				}
			}
		}(tid)
	}
	wg.Wait()
	allocs, frees, scans, _, _ := m.Stats()
	if allocs != 2*rounds || frees != 2*rounds {
		t.Fatalf("allocs=%d frees=%d, want %d each", allocs, frees, 2*rounds)
	}
	// Each cache scans once per DefaultRetireThreshold retires.
	if want := uint64(2 * (rounds / 2 / DefaultRetireThreshold)); scans != want {
		t.Fatalf("scans=%d, want %d", scans, want)
	}
}
