package core

import (
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/arena"
	"repro/internal/backoff"
	"repro/internal/fault"
	"repro/internal/kcas"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/word"
	"repro/internal/xrand"
)

// Thread is the per-goroutine execution context. It carries the paper's
// thread-local variables from Algorithm 3 (desc, ltarget, ltkey,
// insfailed), the thread's hazard-pointer slots, its memory-manager
// cache and its descriptor context.
//
// A Thread must be used by exactly one goroutine at a time.
type Thread struct {
	id    int
	rt    *Runtime
	cache *mm.Cache
	kctx  *kcas.Ctx
	hp    []atomic.Uint64 // this thread's node hazard record

	// Algorithm 3 thread-local variables for the two-object move.
	desc      *kcas.Desc
	descRef   uint64
	ltarget   Inserter
	ltkey     uint64
	insfailed bool

	// Chain state for the §8 k-word compositions (MoveN, TransferN): a
	// step program of removes and inserts whose linearization CASes are
	// captured one entry per step and decided by one k-word CAS.
	mdesc    *kcas.Desc
	mref     uint64
	mSteps   []chainStep // reused buffer; len = entry count
	mVals    [kcas.MaxEntries]uint64
	mReached [kcas.MaxEntries]bool
	mFailed  int
	mAbort   bool
	mDepth   int    // entry index the active step fills
	mElement uint64 // element threaded through the chain

	// scasAborted records whether the most recent composed scas ordered
	// its operation to abort (see StepAborted).
	scasAborted bool
	// pins is the stack of container announcements the running
	// composition holds (see PinObject); pins nest with the chain.
	pins []any

	// Rng is this thread's private random source, seeded from the
	// thread id at registration. The elimination layer draws slot
	// choices from it; workloads may reseed or replace it.
	Rng *xrand.State

	// seq is a private per-thread counter (see Seq).
	seq uint64

	// batchActive marks a batch flush in progress (see batch.go): hazard
	// clears and node retirement are deferred and descriptor retirement
	// routes through the flush recycle path. batchDirty tracks which
	// container hazard slots were published during the flush (so
	// EndBatchFlush clears only those); batchNodes parks nodes retired
	// during the flush until the hazard slots are cleared.
	batchActive bool
	batchDirty  uint32
	batchNodes  []uint64

	bo        *backoff.Exp
	boEnabled bool

	// flt mirrors Config.Fault for the injection points that live above
	// the kcas engine (batch gap, map migration). Nil in production.
	flt fault.Injector

	// reg/trc mirror the runtime's telemetry surfaces (Config.Obs).
	// Nil when disabled; every hook is then one nil check.
	reg *obs.Registry
	trc *obs.Tracer
}

// chainStep is one operation of a composed chain: exactly one of rem or
// ins is set. key is the operation's container key (ignored by unkeyed
// containers).
type chainStep struct {
	rem Remover
	ins Inserter
	key uint64
}

// ID returns the registered thread id (0-based).
func (t *Thread) ID() int { return t.id }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// --- memory management ---------------------------------------------------

// AllocNode returns a fresh node reference with zeroed fields.
func (t *Thread) AllocNode() uint64 { return t.cache.Alloc() }

// Node dereferences a node reference.
func (t *Thread) Node(ref uint64) *arena.Node { return t.rt.arena.Node(ref) }

// RetireNode hands back a node that was unlinked from a shared
// structure; it is recycled once no hazard pointer covers it. Inside a
// batch flush whose retire list is close to a hazard scan, the
// hand-off is deferred to EndBatchFlush: retiring after the flush's
// deferred hazard clears keeps the scan from tripping over the flush's
// own stale protections (which would park those nodes for another full
// cycle). With ample headroom the direct hand-off is cheaper.
func (t *Thread) RetireNode(ref uint64) {
	if t.batchActive && t.cache.ScanHeadroom() < batchScanGuard {
		t.batchNodes = append(t.batchNodes, ref)
		return
	}
	t.cache.Retire(ref)
}

// FreeNodeDirect recycles a node that was never published (aborted
// inserts: lines Q15–Q17, S8–S10).
func (t *Thread) FreeNodeDirect(ref uint64) { t.cache.FreeDirect(ref) }

// FlushMemory drains this thread's retire lists (thread shutdown).
func (t *Thread) FlushMemory() {
	t.cache.Flush()
	t.kctx.Flush()
}

// --- hazard pointers -------------------------------------------------------

// ProtectNode publishes the node referenced by ref in the given slot
// (SlotIns0..SlotRemAux). Passing ref 0 clears the slot — deferred
// inside a batch flush (protection is conservative; EndBatchFlush
// clears once for the whole flush).
func (t *Thread) ProtectNode(slot int, ref uint64) {
	if t.batchActive {
		if ref == 0 {
			return
		}
		t.batchDirty |= 1 << uint(slot)
	}
	t.hp[slot].Store(word.NodeIndex(ref))
}

// ClearNode clears a hazard slot (deferred inside a batch flush).
func (t *Thread) ClearNode(slot int) {
	if t.batchActive {
		return
	}
	t.hp[slot].Store(0)
}

// ClearHazards clears every node hazard slot this thread owns; container
// operations call it on return so stale protections don't delay reuse
// (deferred inside a batch flush).
func (t *Thread) ClearHazards() {
	if t.batchActive {
		return
	}
	for i := range t.hp {
		t.hp[i].Store(0)
	}
}

// HoldNode publishes the node referenced by ref in the i-th chain hold
// slot (0 <= i < kcas.MaxEntries). The hold slots carry initiator-side
// per-entry protections across a composed chain: container operations
// reuse their fixed Ins/Rem slots, so without a hold the node captured
// at entry j would lose its protection as soon as a later same-side
// step overwrites those slots — while its word is still the target of
// the pending k-word CAS. Holds bypass the batch-flush deferral: they
// have their own release point (ReleaseHolds), not the flush's.
func (t *Thread) HoldNode(i int, ref uint64) {
	t.hp[slotChainHoldBase+i].Store(word.NodeIndex(ref))
}

// ReleaseHolds clears every chain hold slot; composed operations call
// it once when their chain completes (either way), also bypassing the
// batch-flush deferral. The thread is its record's only writer, so it
// skips the (fenced) store for slots a short chain never used.
func (t *Thread) ReleaseHolds() {
	for i := 0; i < kcas.MaxEntries; i++ {
		if h := &t.hp[slotChainHoldBase+i]; h.Load() != 0 {
			h.Store(0)
		}
	}
}

// --- shared-word access ----------------------------------------------------

// Read is the read operation of Algorithm 4 (lines D32–D39) extended to
// dispatch on descriptor kind: it helps any pair, k-word or RDCSS
// descriptor announced in w and returns a plain value. The common
// no-descriptor case stays small enough for the inliner; helping is the
// slow path.
func (t *Thread) Read(w *word.Word) uint64 {
	v := w.Load()
	if v&1 == 0 { // word.IsDesc spelled out to stay under the inline budget
		return v
	}
	return t.kctx.Read(w)
}

// CAS performs a plain CAS on a shared word (used for non-linearization
// CASes such as the queue's tail swing, lines Q12/Q19/Q31).
func (t *Thread) CAS(w *word.Word, old, new uint64) bool { return w.CAS(old, new) }

// --- backoff ----------------------------------------------------------------

// EnableBackoff turns on the §6 exponential backoff for this thread's
// operations; containers consult it on every failed retry.
func (t *Thread) EnableBackoff(start, max uint32) {
	t.bo = backoff.New(start, max)
	t.boEnabled = true
}

// DisableBackoff turns backoff off.
func (t *Thread) DisableBackoff() { t.boEnabled = false }

// BackoffWait waits (and doubles) if backoff is enabled; containers call
// it after a conflict.
func (t *Thread) BackoffWait() {
	if t.boEnabled {
		t.bo.Wait()
	}
}

// BackoffReset resets the wait time after a successful operation.
func (t *Thread) BackoffReset() {
	if t.boEnabled {
		t.bo.Reset()
	}
}

// Backoff returns this thread's backoff policy, or nil when disabled.
// The blocking baseline uses it for lock acquisition (§6).
func (t *Thread) Backoff() *backoff.Exp {
	if t.boEnabled {
		return t.bo
	}
	return nil
}

// Fault triggers injection point p if the runtime was configured with
// an injector (Config.Fault); composed pipelines above the kcas engine
// (internal/batch, internal/hashmap) call it at their own critical
// windows. The calling goroutine may be stalled, parked, or terminated
// here.
func (t *Thread) Fault(p fault.Point) {
	if t.trc != nil {
		// The layers above kcas trace through the same named points they
		// inject at; recording before firing means a thread parked or
		// killed at the point has already left its event.
		switch p {
		case fault.BatchPrepareCommit:
			t.trc.Record(t.id, obs.EvBatchFlush, -1, 0)
		case fault.MapMidMigration:
			t.trc.Record(t.id, obs.EvMapMigrate, -1, 0)
		}
	}
	if t.flt != nil {
		t.flt.Fire(p, t.id)
	}
}

// StepAborted reports, inside a composition, whether the running step's
// last scas ordered it to abort (FAbort): the composition is unwinding
// to an earlier step or failing as a whole. A container whose remove
// walks several inner objects (the hash map's table chain) checks it
// when an inner Remove returns false, because an aborted step is not a
// miss — walking on would re-capture the step in a descriptor whose
// earlier entries were dropped. Outside a composition it is false.
func (t *Thread) StepAborted() bool { return t.scasAborted && t.MoveInFlight() }

// PinObject records that the running composition holds an in-flight
// announcement on obj (a container-chosen token, compared by identity)
// until the matching UnpinObject. Pins nest with the composition's
// steps, so they form a stack. Containers whose inserts announce
// themselves to a concurrent grow use them to tell their own
// composition's announcements from other threads'.
func (t *Thread) PinObject(obj any) { t.pins = append(t.pins, obj) }

// UnpinObject drops the most recent pin.
func (t *Thread) UnpinObject() {
	t.pins[len(t.pins)-1] = nil
	t.pins = t.pins[:len(t.pins)-1]
}

// Pins reports how many of this thread's pins name obj, and how many
// pins it holds in all.
func (t *Thread) Pins(obj any) (on, total int) {
	for _, p := range t.pins {
		if p == obj {
			on++
		}
	}
	return on, len(t.pins)
}

// RestartChain makes the running chain composition (MoveN, TransferN)
// unwind to its first step and run again instead of failing. A step
// calls it, then returns false, when it cannot proceed while the
// composition still holds state its earlier steps acquired — waiting
// there could deadlock against another composition doing the same.
// Nothing has been announced at that point, so the restart is
// invisible. Outside a chain it is a no-op.
func (t *Thread) RestartChain() {
	if t.mdesc == nil {
		return
	}
	t.mFailed = 0
	t.mReached[t.mDepth] = true
}

// MoveInFlight reports whether this thread is currently inside a move
// (desc ≠ 0 in the paper's terms); containers use it in assertions and
// tests observe it.
func (t *Thread) MoveInFlight() bool { return t.desc != nil || t.mdesc != nil }

// AdaptTick is the adaptive subsystem's hook in the operation path:
// containers call it once per operation with their controller (nil is
// a no-op, so the call can sit unconditionally on the hot path). A
// true return means this thread crossed the controller's epoch
// boundary and won the sampling gate — the container must now gather
// its signal counters and feed them to the controller's Apply.
func (t *Thread) AdaptTick(c *adapt.Controller) bool {
	if c == nil {
		return false
	}
	return c.Tick(t.id)
}

// Seq returns a thread-local counter that increments on every call;
// containers use it to build unique sub-keys (e.g. the priority queue's
// uniquifier).
func (t *Thread) Seq() uint64 {
	t.seq++
	return t.seq
}
