package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestProtectSnapshotClear(t *testing.T) {
	d := New(4, 3)
	d.Protect(0, 0, 10)
	d.Protect(1, 2, 5)
	d.Protect(3, 1, 10) // duplicate index from another thread
	snap := d.Snapshot(nil)
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for _, idx := range []uint64{5, 10} {
		if !Protected(snap, idx) {
			t.Fatalf("index %d should be protected", idx)
		}
	}
	if Protected(snap, 7) {
		t.Fatal("index 7 should not be protected")
	}
	d.Clear(0, 0)
	d.Clear(3, 1)
	snap = d.Snapshot(snap)
	if Protected(snap, 10) {
		t.Fatal("index 10 should be unprotected after clears")
	}
	if !Protected(snap, 5) {
		t.Fatal("index 5 should remain protected")
	}
}

func TestClearAll(t *testing.T) {
	d := New(2, 4)
	for s := 0; s < 4; s++ {
		d.Protect(1, s, uint64(100+s))
	}
	d.ClearAll(1)
	if snap := d.Snapshot(nil); len(snap) != 0 {
		t.Fatalf("expected empty snapshot, got %v", snap)
	}
}

func TestProtectZeroClears(t *testing.T) {
	d := New(1, 1)
	d.Protect(0, 0, 9)
	d.Protect(0, 0, 0)
	if snap := d.Snapshot(nil); len(snap) != 0 {
		t.Fatal("protecting 0 must clear the slot")
	}
}

func TestGet(t *testing.T) {
	d := New(1, 2)
	d.Protect(0, 1, 77)
	if d.Get(0, 1) != 77 || d.Get(0, 0) != 0 {
		t.Fatal("Get mismatch")
	}
}

func TestSnapshotReusesBuffer(t *testing.T) {
	d := New(2, 2)
	d.Protect(0, 0, 3)
	buf := make([]uint64, 0, 16)
	s1 := d.Snapshot(buf)
	if cap(s1) != 16 {
		t.Fatal("snapshot should reuse caller's buffer")
	}
}

// TestNoProtectedReclamation runs the fundamental hazard-pointer
// property: a scanner never frees an index while some thread holds it.
// Threads repeatedly protect a shared index, validate, use it, release;
// a reclaimer flips the published index and scans.
func TestNoProtectedReclamation(t *testing.T) {
	const readers = 4
	dom := New(readers+1, 1)
	var published atomic.Uint64
	published.Store(1000)
	var freed sync.Map // index -> true once freed
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Reclaimer: publish a new index, then free the old one only when
	// unprotected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var retired []uint64
		next := uint64(1001)
		for i := 0; i < 3000; i++ {
			old := published.Swap(next)
			retired = append(retired, old)
			next++
			snap := dom.Snapshot(nil)
			kept := retired[:0]
			for _, idx := range retired {
				if Protected(snap, idx) {
					kept = append(kept, idx)
				} else {
					freed.Store(idx, true)
				}
			}
			retired = kept
		}
		stop.Store(true)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for !stop.Load() {
				idx := published.Load()
				dom.Protect(tid, 0, idx)
				if published.Load() != idx {
					dom.Clear(tid, 0)
					continue // validation failed; retry
				}
				// The index is protected and validated: it must not have
				// been freed, and must not become freed while held.
				if _, ok := freed.Load(idx); ok {
					t.Errorf("index %d freed while protected", idx)
					dom.Clear(tid, 0)
					return
				}
				if _, ok := freed.Load(idx); ok {
					t.Errorf("index %d freed during protected use", idx)
					dom.Clear(tid, 0)
					return
				}
				dom.Clear(tid, 0)
			}
		}(r + 1)
	}
	wg.Wait()
}

// TestRecordsWholeLines: every record starts on a cache-line boundary
// and spans whole lines, so no two threads' slots share a line.
func TestRecordsWholeLines(t *testing.T) {
	for _, slots := range []int{1, 3, 8, 9, 24} {
		d := New(4, slots)
		if d.stride*8%64 != 0 || d.stride < slots {
			t.Fatalf("slotsPer=%d: stride %d slots is not whole lines", slots, d.stride)
		}
		for tid := 0; tid < 4; tid++ {
			if a := uintptr(unsafe.Pointer(&d.slots[tid*d.stride])); a%64 != 0 {
				t.Fatalf("slotsPer=%d: record %d at %#x is not line-aligned", slots, tid, a)
			}
		}
	}
}

// TestLateThreadIsScanned: a thread whose first publish comes after
// earlier scans (which read fewer records) is still seen by the next
// scan.
func TestLateThreadIsScanned(t *testing.T) {
	d := New(8, 3)
	d.Protect(0, 0, 11)
	if snap := d.Snapshot(nil); len(snap) != 1 || d.Claimed() != 1 {
		t.Fatalf("snapshot %v with %d claimed records, want [11] and 1", snap, d.Claimed())
	}
	d.Protect(5, 2, 55)
	snap := d.Snapshot(nil)
	if !Protected(snap, 55) || !Protected(snap, 11) {
		t.Fatalf("late thread's protection missing from %v", snap)
	}
	if d.Claimed() != 6 {
		t.Fatalf("claimed=%d after thread 5 published, want 6", d.Claimed())
	}
}

// TestUnclaimedRecordsNotRead: slots of records beyond the high-water
// mark are never read by a scan. The test writes such a slot behind
// Protect's back — something no caller can do — to observe that.
func TestUnclaimedRecordsNotRead(t *testing.T) {
	d := New(4, 2)
	d.Claim(1)
	d.Protect(0, 0, 7)
	d.slots[3*d.stride].Store(99) // record 3 is unclaimed
	snap := d.Snapshot(nil)
	if Protected(snap, 99) {
		t.Fatalf("scan read unclaimed record 3: %v", snap)
	}
	if !Protected(snap, 7) {
		t.Fatalf("claimed record 0 missing: %v", snap)
	}
	d.Claim(3)
	if !Protected(d.Snapshot(nil), 99) {
		t.Fatal("record 3 not scanned after its claim")
	}
}
