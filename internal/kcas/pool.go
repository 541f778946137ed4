package kcas

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/word"
)

const (
	descSlabShift = 10
	descSlabSize  = 1 << descSlabShift
	descSlabMask  = descSlabSize - 1
)

// Pool is the grow-only slab store for descriptors, shared by all
// threads and by both protocols. Slot ownership is per-thread: a slot
// is carved by one thread and recycled only through that thread's
// cache, which keeps the seq field single-writer. The configured
// capacity bounds the pool exactly — there is one pool per runtime, so
// core.Config.DescCapacity is the total descriptor budget, not a
// per-engine figure.
//
// Layout: every At reads slabs, and every scan reads dom; a full line
// of padding keeps them off the line of the bump allocator's next and
// the grow lock, written on every carve, whatever the pool's alignment.
// The §7 false-helping counters are per Ctx (see ctxCounters).
type Pool struct {
	slabs atomic.Pointer[[]*[descSlabSize]Desc]
	limit uint64
	dom   *hazard.Domain // descriptor hazard domain (hpd slots)
	_     pad.Line

	next   atomic.Uint64
	growMu sync.Mutex
	_      pad.Line

	ctxMu sync.Mutex
	ctxs  []*Ctx // every context ever created, summed by Stats/KHelps
}

// NewPool creates a descriptor pool with capacity maxDescs (<=0 selects
// 1<<18) and the given descriptor hazard domain.
func NewPool(maxDescs int, dom *hazard.Domain) *Pool {
	if maxDescs <= 0 {
		maxDescs = 1 << 18
	}
	if uint64(maxDescs) > word.MaxDescIndex {
		maxDescs = int(word.MaxDescIndex)
	}
	p := &Pool{limit: uint64(maxDescs), dom: dom}
	empty := make([]*[descSlabSize]Desc, 0)
	p.slabs.Store(&empty)
	return p
}

// At dereferences a descriptor slot index.
func (p *Pool) At(idx uint64) *Desc {
	slabs := *p.slabs.Load()
	return &slabs[idx>>descSlabShift][idx&descSlabMask]
}

// Capacity reports the configured slot limit.
func (p *Pool) Capacity() uint64 { return p.limit }

// Stats reports (pair helper entries, stray cleanups, late ptr2
// installs) — the §7 false-helping metrics — summed over every
// context: exact once the threads are quiescent.
func (p *Pool) Stats() (helps, strays, lateP2 uint64) {
	p.ctxMu.Lock()
	defer p.ctxMu.Unlock()
	for _, c := range p.ctxs {
		helps += c.ctr.helps.Load()
		strays += c.ctr.strays.Load()
		lateP2 += c.ctr.lateP2.Load()
	}
	return helps, strays, lateP2
}

// KHelps reports helper entries into the general k-word protocol,
// summed over every context.
func (p *Pool) KHelps() uint64 {
	p.ctxMu.Lock()
	defer p.ctxMu.Unlock()
	var n uint64
	for _, c := range p.ctxs {
		n += c.ctr.khelps.Load()
	}
	return n
}

// register adds a context to the set Stats and KHelps sum over.
func (p *Pool) register(c *Ctx) {
	p.ctxMu.Lock()
	p.ctxs = append(p.ctxs, c)
	p.ctxMu.Unlock()
}

// Carved reports how many descriptor slots the pool's bump allocator
// has handed out; a flat count under sustained load means recycling is
// keeping up (tests and diagnostics).
func (p *Pool) Carved() uint64 { return p.next.Load() }

// carve bump-allocates n fresh slot indexes.
func (p *Pool) carve(dst []uint64, n int) []uint64 {
	start := p.next.Add(uint64(n)) - uint64(n)
	end := start + uint64(n)
	if end > p.limit {
		// Typed so core.Thread.Try can recover it into ErrResourceExhausted.
		// Safe to throw here: carve runs strictly before the descriptor is
		// filled or announced, so no shared state references the operation.
		panic(&fault.ResourceError{Resource: "kcas: descriptor pool", Capacity: p.limit, Hint: "DescCapacity"})
	}
	p.ensure(end)
	for i := start; i < end; i++ {
		dst = append(dst, i)
	}
	return dst
}

func (p *Pool) ensure(end uint64) {
	need := int((end + descSlabMask) >> descSlabShift)
	if len(*p.slabs.Load()) >= need {
		return
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	cur := *p.slabs.Load()
	if len(cur) >= need {
		return
	}
	grown := make([]*[descSlabSize]Desc, need)
	copy(grown, cur)
	for i := len(cur); i < need; i++ {
		grown[i] = new([descSlabSize]Desc)
	}
	p.slabs.Store(&grown)
}
