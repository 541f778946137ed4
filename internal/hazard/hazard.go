// Package hazard implements Michael-style hazard pointers [17], the
// memory-reclamation scheme the paper's case-study objects and DCAS use.
//
// A Domain owns one fixed-size record of hazard slots per thread. A slot
// protects an *index* (node index or descriptor index): protecting by
// index rather than full reference means tag/mark variants of the same
// object are all covered by one slot.
//
// Records live in one cache-line-aligned array, each rounded up to a
// whole number of lines, so a thread's protections never share a line
// with another thread's. Scans read only the records of threads that
// have published at least once: a high-water mark, raised before a
// thread's first store, bounds the scan, so a runtime sized for 64
// threads but driven by 2 scans 2 records.
//
// Reclamation itself (retire lists, scanning, free lists) lives with the
// owners of the memory: package mm for nodes and package kcas for
// descriptors. This package only answers "is index i protected by any
// thread right now?" via Snapshot.
package hazard

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/pad"
)

// wordsPerLine is how many slots fill one cache line.
const wordsPerLine = pad.CacheLineSize / 8

// Domain is a set of hazard-pointer records, one per thread, each with a
// fixed number of slots.
type Domain struct {
	slotsPer int
	stride   int             // slots per record, rounded up to whole lines
	maxThr   int             // record count
	slots    []atomic.Uint64 // record t is slots[t*stride : t*stride+slotsPer]

	// claimed is the high-water mark of records in use: every thread id
	// that has ever published is below it. Raised (rarely) before a
	// thread's first store; read by every Protect and Snapshot.
	claimed atomic.Int64
}

// New creates a domain for maxThreads threads with slotsPer hazard slots
// each.
func New(maxThreads, slotsPer int) *Domain {
	stride := (slotsPer + wordsPerLine - 1) / wordsPerLine * wordsPerLine
	raw := make([]atomic.Uint64, maxThreads*stride+wordsPerLine-1)
	// The allocator does not move heap objects, so aligning the first
	// record once aligns every record for the domain's lifetime.
	off := 0
	for uintptr(unsafe.Pointer(&raw[off]))%pad.CacheLineSize != 0 {
		off++
	}
	return &Domain{
		slotsPer: slotsPer,
		stride:   stride,
		maxThr:   maxThreads,
		slots:    raw[off : off+maxThreads*stride : off+maxThreads*stride],
	}
}

// SlotsPerThread returns the number of slots each thread owns.
func (d *Domain) SlotsPerThread() int { return d.slotsPer }

// MaxThreads returns the number of thread records in the domain.
func (d *Domain) MaxThreads() int { return d.maxThr }

// Claimed reports the high-water mark: records [0, Claimed) are the
// ones Snapshot reads.
func (d *Domain) Claimed() int { return int(d.claimed.Load()) }

// Claim raises the high-water mark to cover thread tid. Protect claims
// on a thread's first store; registration may claim up front so the
// first store takes the fast path.
func (d *Domain) Claim(tid int) {
	if tid >= d.maxThr {
		panic("hazard: thread id beyond the domain's records")
	}
	for {
		c := d.claimed.Load()
		if int64(tid) < c || d.claimed.CompareAndSwap(c, int64(tid)+1) {
			return
		}
	}
}

// Record claims thread tid's record and returns its slots. A store of
// idx into slot s of the result is Protect(tid, s, idx) without the
// claim check: the per-thread fast path for the record's only writer.
func (d *Domain) Record(tid int) []atomic.Uint64 {
	d.Claim(tid)
	return d.slots[tid*d.stride : tid*d.stride+d.slotsPer : tid*d.stride+d.slotsPer]
}

// Protect publishes index idx in the given slot of thread tid. idx 0
// clears the slot. The store is sequentially consistent, which gives the
// store-load ordering hazard pointers require between publishing the
// hazard and re-validating the source.
//
// A thread's record is claimed (sequentially consistent, too) before
// its first store lands, so a scan that reads a high-water mark below
// tid happened before that store — and therefore before the publishing
// thread's re-validation, which then sees the object already unlinked.
func (d *Domain) Protect(tid, slot int, idx uint64) {
	if int64(tid) >= d.claimed.Load() {
		d.Claim(tid)
	}
	d.slots[tid*d.stride+slot].Store(idx)
}

// Clear removes any protection in the given slot.
func (d *Domain) Clear(tid, slot int) {
	d.slots[tid*d.stride+slot].Store(0)
}

// ClearAll removes every protection held by thread tid.
func (d *Domain) ClearAll(tid int) {
	rec := d.slots[tid*d.stride : tid*d.stride+d.slotsPer]
	for s := range rec {
		rec[s].Store(0)
	}
}

// Get returns the index currently protected in the slot (for tests).
func (d *Domain) Get(tid, slot int) uint64 {
	return d.slots[tid*d.stride+slot].Load()
}

// Snapshot appends every currently protected index of the claimed
// records to buf, sorts the result and returns it. Callers reuse buf
// across scans to stay allocation-free.
func (d *Domain) Snapshot(buf []uint64) []uint64 {
	buf = buf[:0]
	n := int(d.claimed.Load())
	for t := 0; t < n; t++ {
		rec := d.slots[t*d.stride : t*d.stride+d.slotsPer]
		for s := range rec {
			if v := rec[s].Load(); v != 0 {
				buf = append(buf, v)
			}
		}
	}
	slices.Sort(buf)
	return buf
}

// Protected reports whether idx appears in a sorted snapshot.
func Protected(snapshot []uint64, idx uint64) bool {
	_, ok := slices.BinarySearch(snapshot, idx)
	return ok
}
